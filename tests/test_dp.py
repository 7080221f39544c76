"""DP tables: values against brute force, pre-stock seeding, filtering rules."""

import copy
import dataclasses
import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lotsizing import (
    INSTANCE_CLASSES,
    DisjunctiveSpec,
    DomainStore,
    Status,
    apply_disjunctions,
    bc_feasibility,
    filter_with_dp,
    generate,
    make_instance,
    strip_lower_bounds,
    validate_and_normalize,
    window_tables,
)
from lotsizing import dp as dp_mod
from lotsizing.domains import iv_from_mask, iv_intersect, iv_mask, iv_shift, iv_values, merge
from lotsizing.dp import _backward_step, _forward_step, _runs_min, _window_min, make_cost_view
from lotsizing.flow import pre_stock
from conftest import plan_costs, rand_normalized, store_plans
from test_bc import reference_setup

INF = math.inf
_REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


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
    stripped = strip_lower_bounds(inst, store)
    return store, stripped


class TestTables:
    def test_forward_values_hand_checked(self):
        store, stripped = setup_problem(two_period(), bc=False)
        fwd, _ = window_tables(stripped, None, cs_mode=False)
        assert fwd.row(1)[0] == 7  # produce just d1: setup 5 + 2 units at 1
        assert fwd.row(1)[3] == 13  # produce 5: 5 + 5 + holding 3
        assert fwd.row(2)[0] == 13
        assert fwd.optimum() == 13

    def test_backward_values_hand_checked(self):
        store, stripped = setup_problem(two_period(), bc=False)
        _, bwd = window_tables(stripped, None, cs_mode=False)
        assert bwd.row(1)[0] == 10  # serve d2 from scratch: setup 4 + 3 units at 2
        assert bwd.row(1)[3] == 0
        assert bwd.row(0)[0] == 13

    def test_zero_demand_everywhere(self):
        inst = make_instance(d=[0, 0, 0], p=[1, 1, 1], h=[1, 1, 1], s=[3, 3, 3],
                             alpha_hi=[4, 4, 4], beta_hi=[4, 4, 4])
        store, stripped = setup_problem(inst, bc=False)
        fwd, _ = window_tables(stripped, None, cs_mode=False)
        assert all(fwd.row(b)[0] == 0 for b in range(4))

    def test_y_zero_makes_window_infeasible(self):
        inst = two_period()
        store = DomainStore.for_instance(inst)
        store.assign(("Y", 0), 0)
        reference_setup(store, 0)
        store, stripped = setup_problem(inst, store, bc=False)
        fwd, _ = window_tables(stripped, None, cs_mode=False)
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
            fwd, bwd = window_tables(stripped, None, cs_mode=False)
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
            fwd, bwd = window_tables(stripped, None, cs_mode=False)
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
                reference_setup(store, t)
            if store.failed:
                continue
            store, stripped = setup_problem(inst, store)
            if stripped is None:
                assert not list(store_plans(inst, store))
                continue
            fwd, _ = window_tables(stripped, None, cs_mode=False)
            plans = [plan_costs(inst, x, i, y)[3] for x, i, y in store_plans(inst, store)]
            want = min(plans) if plans else INF
            got = fwd.optimum() + fwd.sunk + stripped.c_min if not math.isinf(fwd.optimum()) else INF
            assert got == want


class TestKnap:
    def test_setup_only_optimum(self):
        store, stripped = setup_problem(two_period(), bc=False)
        knap, _ = window_tables(stripped, None, cs_mode=True)
        assert knap.optimum() == 5  # produce everything in period 1

    def test_zero_setups(self):
        inst = make_instance(d=[2, 2], p=[3, 3], h=[2, 2], s=[0, 0], alpha_hi=[4, 4], beta_hi=[4, 4])
        store, stripped = setup_problem(inst, bc=False)
        knap, _ = window_tables(stripped, None, cs_mode=True)
        assert knap.optimum() == 0

    def test_tight_inventory_forces_both_setups(self):
        inst = make_instance(d=[2, 3], p=[1, 2], h=[1, 1], s=[5, 4], alpha_hi=[5, 5], beta_hi=[0, 0])
        store, stripped = setup_problem(inst, bc=False)
        knap, _ = window_tables(stripped, None, cs_mode=True)
        assert knap.optimum() == 9

    def test_lower_bounds_every_plan(self):
        rng = random.Random(31)
        for _ in range(80):
            inst = rand_normalized(rng, max_T=5, max_d=4, max_cap=6, with_lower_bounds=False)
            store, stripped = setup_problem(inst)
            if stripped is None:
                continue
            knap, _ = window_tables(stripped, None, cs_mode=True)
            plans = [plan_costs(inst, x, i, y)[2] for x, i, y in store_plans(inst, store)]
            if plans:
                assert knap.optimum() <= min(plans)


class TestPrestock:
    def test_single_source(self):
        inst = make_instance(d=[0, 5], p=[1, 9], h=[1, 1], s=[0, 0], alpha_hi=[5, 5], beta_hi=[9, 9])
        store, stripped = setup_problem(inst, bc=False)
        init = pre_stock(stripped, False)(1, 5)
        assert list(init) == [0, 2, 4, 6, 8, 10]

    def test_start_of_horizon(self):
        store, stripped = setup_problem(two_period(), bc=False)
        row = pre_stock(stripped, False)
        assert list(row(0, 0)) == [0.0]
        assert list(row(0, 4)) == [0.0] + [INF] * 4  # the initial stock is 0

    def test_two_sources_allocation(self):
        inst = make_instance(d=[0, 0, 9], p=[1, 4, 9], h=[1, 1, 1], s=[0, 0, 0],
                             alpha_hi=[2, 2, 9], beta_hi=[9, 9, 9])
        store, stripped = setup_problem(inst, bc=False)
        init = pre_stock(stripped, False)(2, 4)
        # unit from t0 costs 1+1 (+1 at the boundary), from t1 costs 4 (+1)
        assert init[3] == (1 + 1 + 1) * 2 + (4 + 1) * 1
        assert init[4] == (1 + 1 + 1) * 2 + (4 + 1) * 2

    def test_unreachable_is_inf(self):
        inst = make_instance(d=[0, 3], p=[1, 1], h=[0, 0], s=[0, 0], alpha_hi=[2, 3], beta_hi=[5, 5])
        store, stripped = setup_problem(inst, bc=False)
        init = pre_stock(stripped, False)(1, 3)
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
            init = pre_stock(stripped, False)(u, q_max)
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
    """The pre-stock row (``flow.pre_stock``) against a DP over (period, stock level),
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
            store = DomainStore.for_instance(inst)
            for t in range(T):
                roll = rng.random()
                if roll < 0.15:
                    store.set_max(("Y", t), 0)
                elif roll < 0.35:
                    store.set_max(("X", t), rng.randint(0, inst.alpha_hi[t]))
                if rng.random() < 0.3:
                    store.set_max(("I", t), rng.randint(0, inst.beta_hi[t]))
            store, stripped = setup_problem(inst, store, bc=False)
            u = rng.randint(1, min(T - 1, 6))
            q_max = rng.randint(0, 14)
            for zero_costs in (False, True):
                got = list(pre_stock(stripped, zero_costs)(u, q_max))
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

    def test_long_rows_every_regime(self):
        """Rows of up to 64 entries, with windows near the row length in
        half the calls and narrower ones in the rest. Each call is counted
        in every regime one of its outputs falls in: cut on the left, on the
        right or at both ends, and interior, narrow when there are at most w
        interior outputs (w the window width), wide otherwise."""
        rng = random.Random(59)
        seen = dict.fromkeys(("left", "right", "both", "narrow", "wide"), 0)
        for _ in range(6_000):
            n = rng.randint(1, 64)
            m = rng.randint(1, 80)
            w = n + rng.randint(-6, 6) if rng.random() < 0.5 else rng.randint(1, n)
            lo0 = rng.randint(-n - 8, n)
            hi0 = lo0 + w - 1
            vals = np.array([INF if rng.random() < 0.1 else float(rng.randint(0, 999)) for _ in range(n)])
            got = _window_min(vals, m, lo0, hi0)
            want = [min(vals[max(lo0 + i, 0) : max(hi0 + i + 1, 0)], default=INF) for i in range(m)]
            assert list(got) == want, (list(vals), m, lo0, hi0)
            ends = [(lo0 + i, hi0 + i) for i in range(m) if lo0 + i < n and hi0 + i >= 0]
            seen["left"] += any(s <= 0 and e < n - 1 for s, e in ends)
            seen["right"] += any(s > 0 and e >= n - 1 for s, e in ends)
            seen["both"] += any(s <= 0 and e >= n - 1 for s, e in ends)
            k = sum(s > 0 and e < n - 1 for s, e in ends)
            seen["narrow" if k <= w else "wide"] += k > 0
        floor = {"left": 2500, "right": 3500, "both": 700, "narrow": 1100, "wide": 550}
        assert all(seen[r] >= floor[r] for r in floor), seen


class TestRunsMin:
    def test_matches_naive_minimum_over_spans(self):
        """One to four spans per call: widths 1 and powers of two among
        random ones, spans past either end of the row or wholly outside it,
        empty spans, more outputs than inputs, inf entries."""
        rng = random.Random(53)
        multi = 0
        for _ in range(20_000):
            n = rng.randint(0, 24)
            m = rng.randint(1, 30)
            vals = np.array([INF if rng.random() < 0.2 else float(rng.randint(0, 99)) for _ in range(n)])
            spans = []
            for _ in range(rng.randint(1, 4)):
                lo = rng.randint(-40, 30)
                width = rng.choice([1, 2, 4, 8, 16, 32, rng.randint(-1, 40)])
                spans.append((lo, lo + width - 1))
            multi += len(spans) > 1
            got = _runs_min(vals, m, spans)
            want = [
                min((min(vals[max(lo + i, 0) : max(hi + i + 1, 0)], default=INF) for lo, hi in spans), default=INF)
                for i in range(m)
            ]
            assert list(got) == want, (list(vals), m, spans)
        assert multi > 10_000


# The DP steps before ``_runs_min``: one ``_window_min`` and one linear term
# per production run, kept as the reference the shared range minimum must
# reproduce bit for bit.


def _reference_forward_step(view, t: int, prev: np.ndarray) -> np.ndarray:
    k = t - view.u
    d, p, h, sc = view.d[k], view.p[k], view.h[k], view.s_charge[k]
    m = view.cap(t + 1) + 1
    m_prev = len(prev)
    iarr = np.arange(m)
    row = np.full(m, INF)
    x0_ok, runs = view.x_runs(t)
    if x0_ok:
        k0 = min(m, m_prev - d)
        if k0 > 0:
            row[:k0] = prev[d : d + k0] + h * iarr[:k0]
    if runs:
        g = prev - p * np.arange(m_prev)
        for xa, xb in runs:
            wm = _window_min(g, m, d - xb, d - xa)
            np.minimum(row, wm + p * (iarr + d) + h * iarr + sc, out=row)
    mask = view.i_mask_at(t + 1)
    if mask is not None:
        row[~mask] = INF
    return row


def _reference_backward_step(view, t: int, nxt: np.ndarray) -> np.ndarray:
    k = t - view.u
    d, p, h, sc = view.d[k], view.p[k], view.h[k], view.s_charge[k]
    m = view.cap(t) + 1
    m_next = len(nxt)
    iarr = np.arange(m)
    row = np.full(m, INF)
    x0_ok, runs = view.x_runs(t)
    if x0_ok:
        k0 = min(m, d + m_next)
        if k0 > d:
            row[d:k0] = nxt[: k0 - d] + h * np.arange(k0 - d)
    if runs:
        g = nxt + (p + h) * np.arange(m_next)
        for xa, xb in runs:
            wm = _window_min(g, m, xa - d, xb - d)
            np.minimum(row, wm + p * (d - iarr) + sc, out=row)
    mask = view.i_mask_at(t)
    if mask is not None:
        row[~mask] = INF
    return row


def _check_steps(view, init_row) -> int:
    """Both steps against their references along every row of the view's
    tables, each fed the reference's previous row; returns the number of
    steps over more than one production run."""
    multi = 0
    for forward, step, ref in ((True, _forward_step, _reference_forward_step),
                               (False, _backward_step, _reference_backward_step)):
        row = init_row if forward else np.array([0.0])
        periods = range(view.u, view.v + 1) if forward else range(view.v, view.u - 1, -1)
        for t in periods:
            want = ref(view, t, row)
            got = step(view, t, row)
            assert got.tobytes() == want.tobytes(), (forward, t)
            multi += len(view.x_runs(t)[1]) > 1
            row = want
    return multi


class TestStepReference:
    def test_registry_roots(self):
        """Every registry class, seeds 1-3: Disj roots step over three
        production runs, the rest over one. Both cost modes, except on the
        Peaks roots (2.9M states each, 40x the others), which take the
        cost mode only."""
        roots = multi = 0
        for cls, template in INSTANCE_CLASSES.items():
            for seed in (1, 2, 3):
                params = dataclasses.replace(template.params, seed=seed)
                inst = validate_and_normalize(generate(params))
                store = DomainStore.for_instance(inst)
                if template.disjunction:
                    apply_disjunctions(store, DisjunctiveSpec.uniform(params.T, template.disjunction))
                store, stripped = setup_problem(inst, store)
                assert stripped is not None, (cls, seed)
                for cs_mode in (False,) if "Peaks" in cls else (False, True):
                    multi += _check_steps(make_cost_view(stripped, cs_mode=cs_mode), np.array([0.0]))
                roots += 1
        assert roots == 120 and multi >= 4000, (roots, multi)

    def test_fuzz_stores(self):
        """Holed random roots on suffix and sub-windows, both cost modes;
        windows after period 0 start from the pre-stock row."""
        rng = random.Random(59)
        cases = multi = 0
        for _ in range(3000):
            root = _holed_root(rng)
            if root is None:
                continue
            inst, store, stripped = root
            u = rng.randint(0, inst.T - 1)
            window = rng.choice([None, (u, inst.T - 1), (u, rng.randint(u, inst.T - 1))])
            view = make_cost_view(stripped, window, cs_mode=rng.random() < 0.3)
            fwd, _ = window_tables(stripped, window, cs_mode=view.cs_mode)
            multi += _check_steps(view, fwd.row(view.u))
            cases += 1
        assert cases >= 900 and multi >= 1000, (cases, multi)


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
        fwd, bwd = window_tables(stripped, None, cs_mode=False)
        st = filter_with_dp(fwd, bwd, store, stripped, 13)
        assert st is Status.CHANGED
        assert store.intervals(("I", 0)) == ((3, 3),)
        assert store.intervals(("X", 0)) == ((5, 5),)
        assert store.intervals(("X", 1)) == ((0, 0),)

    def test_infinite_bound_unchanged(self):
        inst = two_period()
        store, stripped = setup_problem(inst, bc=False)
        fwd, bwd = window_tables(stripped, None, cs_mode=False)
        assert filter_with_dp(fwd, bwd, store, stripped, math.inf) is Status.UNCHANGED

    def test_finite_bound_prunes_unreachable_states(self):
        inst = two_period()
        store, stripped = setup_problem(inst, bc=False)
        fwd, bwd = window_tables(stripped, None, cs_mode=False)
        # Stock above the remaining demand can never drain to zero; any
        # finite bound exposes that.
        assert filter_with_dp(fwd, bwd, store, stripped, 10**9) is Status.CHANGED
        assert store.max(("I", 0)) == 3

    def test_bound_below_optimum_fails(self):
        inst = two_period()
        store, stripped = setup_problem(inst, bc=False)
        fwd, bwd = window_tables(stripped, None, cs_mode=False)
        assert filter_with_dp(fwd, bwd, store, stripped, 12) is Status.FAILED

    def test_snapshot_older_than_the_store(self):
        """The filter reads its tables and strip and only writes the store.
        On a store narrowed after the strip, as a support window finds it
        after the windows before it, every X/I/Y domain ends as the narrowed
        one cut by what the filter leaves on the strip's own store, and the
        filter fails exactly when one of those cuts is empty."""
        rng = random.Random(47)
        checked = failed = 0
        for _ in range(3000):
            root = _holed_root(rng)
            if root is None:
                continue
            inst, store, stripped = root
            u = rng.randint(0, inst.T - 1)
            window = rng.choice([None, (u, rng.randint(u, inst.T - 1))])
            fwd, bwd = window_tables(stripped, window, cs_mode=rng.random() < 0.3)
            if math.isinf(fwd.optimum()):
                continue
            ub = int(fwd.optimum()) + fwd.sunk + rng.randint(0, 20)
            fresh = copy.deepcopy(store)
            if filter_with_dp(fwd, bwd, fresh, stripped, ub) is Status.FAILED:
                continue
            narrowed = copy.deepcopy(store)
            keys = [(var, t) for t in range(inst.T) for var in ("X", "I", "Y")]
            for key in keys:
                if rng.random() < 0.2:
                    narrowed.remove_value(key, rng.randint(narrowed.min(key), narrowed.max(key)))
                    if narrowed.failed:
                        break
            if narrowed.failed:
                continue
            want = {key: iv_intersect(narrowed.intervals(key), fresh.intervals(key)) for key in keys}
            st = filter_with_dp(fwd, bwd, narrowed, stripped, ub)
            if all(want.values()):
                assert st is not Status.FAILED
                assert {key: narrowed.intervals(key) for key in keys} == want
                checked += 1
            else:
                assert st is Status.FAILED
                failed += 1
        assert checked >= 300 and failed >= 40, (checked, failed)

    def test_sound_and_complete_at_dp_level(self, monkeypatch):
        """Every plan within the bound keeps its values, and the production
        domains are exactly its values, the inventory domains its bounds.
        Each case also runs at a pair cap of 1: the X and Y domains of every
        period that the all-pairs-fit shortcut does not settle and that holds
        more than one survivor pair stay as they were, and the other periods
        are filtered as at the default cap."""
        rng = random.Random(41)
        tested = kept = 0
        for _ in range(1000):
            inst = rand_normalized(rng, max_T=5, max_d=4, max_cap=6)
            root, stripped = setup_problem(inst)
            if stripped is None:
                continue
            plans = list(store_plans(inst, root))
            if not plans:
                continue
            costs = [plan_costs(inst, x, i, y)[3] for x, i, y in plans]
            opt = min(costs)
            ub = opt + rng.choice([0, 0, 1, 3])
            fine = [(x, i, y) for (x, i, y), c in zip(plans, costs) if c <= ub]
            fwd, bwd = window_tables(stripped, None, cs_mode=False)
            ub_eff = ub - stripped.c_min - fwd.sunk
            surv = dp_mod._survivors(fwd, bwd, ub_eff)
            unsettled = [
                t for t in range(inst.T)
                if dp_mod._fit_range(surv, t, fwd.view.d[t], fwd.view.s_charge[t], ub_eff) is None
            ]
            for pair_cap in (dp_mod._PAIR_CAP, 1):
                monkeypatch.setattr(dp_mod, "_PAIR_CAP", pair_cap)
                over = {t for t in unsettled if surv.count[t] * surv.count[t + 1] > pair_cap}
                store = copy.deepcopy(root)
                st = filter_with_dp(fwd, bwd, store, stripped, ub - stripped.c_min)
                assert st is not Status.FAILED
                for t in range(inst.T):
                    for x, i, y in fine:
                        assert store.contains(("X", t), x[t]) and store.contains(("Y", t), y[t])
                    # Production values exactly; inventory to bounds.
                    i_vals = {i[t] for _, i, _ in fine}
                    if t in over:
                        for var in "XY":
                            assert store.intervals((var, t)) == root.intervals((var, t))
                    else:
                        assert set(iv_values(store.intervals(("X", t)))) == {x[t] for x, _, _ in fine}
                    assert (store.min(("I", t)), store.max(("I", t))) == (min(i_vals), max(i_vals))
                kept += len(over)
            tested += 1
        assert tested >= 400 and kept >= 45, (tested, kept)


# The S x S pair-matrix filter that ``filter_with_dp`` replaced, kept as the
# reference its output must equal.


def _pair_matrix(view, t: int, frow: np.ndarray, brow: np.ndarray):
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


def _reference_filter(
    fwd,
    bwd,
    store: DomainStore,
    stripped,
    cost_ub: int,
    before: int = 0,
    after: int = 0,
) -> Status:
    """Reference for ``filter_with_dp``: every production value is read off
    the full S x S pair matrix of its period.

    Remove inventory/production/setup values not supported under the bound.

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


def _holed_root(rng):
    """A random root with X/I holes and some fixed setups, rows up to about
    80 states; None when bound consistency fails."""
    T = rng.randint(2, 10)
    d = [rng.randint(0, 14) for _ in range(T)]
    inst = make_instance(
        d=d,
        p=[rng.randint(0, 5) for _ in range(T)],
        h=[rng.randint(0, 3) for _ in range(T)],
        s=[rng.randint(0, 40) for _ in range(T)],
        alpha_hi=[rng.randint(0, 35) for _ in range(T)],
        beta_hi=[rng.randint(0, 80) for _ in range(T)],
    )
    store = DomainStore.for_instance(inst)
    if bc_feasibility(store, inst)[0] is Status.FAILED:
        return None
    for t in range(T):
        for var in ("X", "I"):
            if rng.random() < 0.3:
                lo, hi = store.min((var, t)), store.max((var, t))
                for _ in range(rng.randint(1, 4)):
                    store.remove_value((var, t), rng.randint(lo, hi))
        if rng.random() < 0.15:
            store.assign(("Y", t), rng.randint(0, 1))
    if store.failed or bc_feasibility(store, inst)[0] is Status.FAILED:
        return None
    return inst, store, setup_problem(inst, store, bc=False)[1]


def _scan_inputs(fwd, bwd, store, stripped, ub_eff, t):
    """The general scan's inputs for period t, built from the tables as the
    scan path builds them: A and C INF off the survivors, and the candidate
    mask from the view and the store's current production domain."""
    view = fwd.view
    k = t - view.u
    d, p, h = view.d[k], view.p[k], view.h[k]
    j = np.arange(len(fwd.row(t)))
    i = np.arange(len(fwd.row(t + 1)))
    A = np.where(fwd.row(t) + bwd.row(t) <= ub_eff, fwd.row(t) - p * j, INF)
    C = np.where(fwd.row(t + 1) + bwd.row(t + 1) <= ub_eff, bwd.row(t + 1) + (p + h) * i + p * d, INF)
    xcap = view.x_cap[k]
    dom = iv_shift(store.intervals(("X", t)), -stripped.x_off[t])
    cand = view.x_allow_mask(t) & iv_mask(dom, 0, xcap)
    if view.windowed:
        cand[view.tail[k + 1] :] = False
    return A, C, cand


class _ScanRecorder:
    """Wraps ``_support``, ``_mark_rows`` and ``_fit_range``. Every general
    pass records how it read its period: whether some read took columns and
    some took diagonals (never a column read after a diagonal one), and
    whether it stopped with rows left that the cheapest-partner cut keeps. Every ``_fit_range`` call first checks the survivor facts of
    both boundaries against the survivors read off the rows one at a time.
    Where the all-pairs-fit shortcut answers, the recorder runs the general
    pass on the same period, asserts that it supports exactly the
    candidates in the shortcut's range and agrees on the idle test, and
    records that pass too, so the reads are counted over every period."""

    def __init__(self, monkeypatch):
        self.columns = self.diagonals = self.early = 0
        self.shortcuts = self.scans = 0
        self.case = None  # (fwd, bwd, store, stripped) of the filter call under test
        self._reads = []  # (diagonal, rows) of each read of the pass under way
        self._kernel, self._fit, self._mark = dp_mod._support, dp_mod._fit_range, dp_mod._mark_rows
        monkeypatch.setattr(dp_mod, "_support", self.support)
        monkeypatch.setattr(dp_mod, "_fit_range", self.fit_range)
        monkeypatch.setattr(dp_mod, "_mark_rows", self.mark_rows)

    def mark_rows(self, A, C, d, sc, rows, cols, ub, sup, diagonal=False):
        self._reads.append((diagonal, len(rows)))
        self._mark(A, C, d, sc, rows, cols, ub, sup, diagonal)

    def run(self, A, C, d, sc, cand, ub):
        self._reads = []
        sup, idle = self._kernel(A, C, d, sc, cand, ub)
        modes = [diagonal for diagonal, _ in self._reads]
        assert modes == sorted(modes), modes
        self.columns += False in modes
        self.diagonals += True in modes
        live = C < INF
        rows = np.count_nonzero(A + C[live].min() <= ub) if live.any() else 0
        self.early += 0 < sum(n for _, n in self._reads) < rows
        return sup, idle

    def support(self, *args):
        self.scans += 1
        return self.run(*args)

    def fit_range(self, surv, k, d, sc, ub):
        fwd, bwd, store, stripped = self.case
        A, C, cand = _scan_inputs(fwd, bwd, store, stripped, ub, fwd.view.u + k)
        for b, vals, top in ((k, A, surv.max_a), (k + 1, C, surv.max_c)):
            live = np.flatnonzero(vals < INF)
            assert surv.count[b] == len(live), (b, surv.count[b], len(live))
            if len(live):
                assert (surv.first[b], surv.last[b]) == (live[0], live[-1])
                assert surv.dense[b] == (live[-1] - live[0] + 1 == len(live))
                assert top[b] == vals[live].max()
        fit = self._fit(surv, k, d, sc, ub)
        if fit is not None:
            sup, idle = self.run(A, C, d, sc, cand, ub)
            x = np.arange(len(cand))
            assert np.array_equal(sup & cand, cand & (fit[0] <= x) & (x <= fit[1])), (k, fit)
            assert idle == (fit[0] <= 0 <= fit[1]), (k, fit)
            self.shortcuts += 1
        return fit


class TestSupportEquivalence:
    """``filter_with_dp`` gives the pair-matrix reference's status and
    domains on suffix and windowed views, in both cost modes."""

    # Each test counts the general pass's reads, which the batched pair
    # pass would take over: ``_PAIR_CHUNK`` = 0 sends every period the
    # shortcut leaves to the general pass. ``TestPairPass`` covers the
    # batched pass.

    @pytest.mark.parametrize("block", [None, 16])
    def test_matches_pair_matrix_reference(self, monkeypatch, block):
        """A block of 16 pairs splits both reads of the general pass into
        many pieces, and its survivor pass into runs of rows."""
        if block is not None:
            monkeypatch.setattr(dp_mod, "_BLOCK", block)
        monkeypatch.setattr(dp_mod, "_PAIR_CHUNK", 0)
        rec = _ScanRecorder(monkeypatch)
        rng = random.Random(2027)
        cases = failed = y_removals = 0
        for _ in range(3000):
            root = _holed_root(rng)
            if root is None:
                continue
            inst, store, stripped = root
            T = inst.T
            u = rng.randint(0, T - 1)
            window = rng.choice([None, (u, T - 1), (u, rng.randint(u, T - 1))])
            cs_mode = rng.random() < 0.3
            fwd, bwd = window_tables(stripped, window, cs_mode=cs_mode)
            opt = fwd.optimum()
            if math.isinf(opt):
                continue
            before, after = (rng.randint(0, 20), rng.randint(0, 20)) if fwd.view.windowed else (0, 0)
            slack = rng.choice([-1, 0, 0, 1, 5, 20, 100, 10**6])
            ub = int(opt) + fwd.sunk + before + after + slack
            ref = copy.deepcopy(store)
            open_y = [t for t in range(T) if store.intervals(("Y", t)) == ((0, 1),)]
            want = _reference_filter(fwd, bwd, ref, stripped, ub, before, after)
            rec.case = (fwd, bwd, store, stripped)
            got = filter_with_dp(fwd, bwd, store, stripped, ub - before - after)
            assert got is want, (window, cs_mode, slack)
            assert store.snapshot() == ref.snapshot(), (window, cs_mode, slack)
            if slack < 0 and not fwd.view.windowed:
                assert got is Status.FAILED
            failed += got is Status.FAILED
            y_removals += sum(store.max(("Y", t)) == 0 for t in open_y)
            cases += 1
        assert cases >= 900 and failed >= 50 and y_removals >= 300
        # Both reads of the general pass, and passes that stop once every
        # candidate is supported, before their last row.
        assert rec.columns >= 2400 and rec.diagonals >= 800 and rec.early >= 470, (
            rec.columns, rec.diagonals, rec.early)
        assert rec.shortcuts >= 1000 and rec.scans >= 1000, (rec.shortcuts, rec.scans)

    @pytest.mark.parametrize("block", [None, 16])
    def test_shortcut_cases_match_reference(self, monkeypatch, block):
        """Loose bounds, where the shortcut answers most: slack 10**6 and the
        trivial cost cap, on roots whose inventory holes leave survivors that
        are not intervals, so the general scan must answer there. A block of
        16 states splits the survivor pass into runs of rows, as a table many
        times the default block does."""
        if block is not None:
            monkeypatch.setattr(dp_mod, "_BLOCK", block)
        monkeypatch.setattr(dp_mod, "_PAIR_CHUNK", 0)
        rec = _ScanRecorder(monkeypatch)
        rng = random.Random(8)
        cases = holed = 0
        for _ in range(2000):
            root = _holed_root(rng)
            if root is None:
                continue
            inst, store, stripped = root
            fwd, bwd = window_tables(stripped, None, cs_mode=False)
            opt = fwd.optimum()
            if math.isinf(opt):
                continue
            trivial = store.max(("C", 0)) - stripped.c_min
            ub = rng.choice([int(opt) + fwd.sunk + 10**6, trivial])
            holed += any(len(store.intervals(("I", t))) > 1 for t in range(inst.T))
            ref = copy.deepcopy(store)
            want = _reference_filter(fwd, bwd, ref, stripped, ub)
            rec.case = (fwd, bwd, store, stripped)
            got = filter_with_dp(fwd, bwd, store, stripped, ub)
            assert got is want
            assert store.snapshot() == ref.snapshot()
            cases += 1
        assert cases >= 600 and holed >= 350, (cases, holed)
        # The shortcut settles most periods; holes send the rest to the scan.
        assert rec.shortcuts >= 1800 and rec.scans >= 1500, (rec.shortcuts, rec.scans)

    def test_trivial_cap_on_registry_roots(self, monkeypatch):
        """No incumbent: on the C3QR root every period takes the shortcut,
        and the domains match the reference."""
        monkeypatch.setattr(dp_mod, "_PAIR_CHUNK", 0)
        rec = _ScanRecorder(monkeypatch)
        params = dataclasses.replace(INSTANCE_CLASSES["C3QR"].params, seed=1)
        inst = validate_and_normalize(generate(params))
        store, stripped = setup_problem(inst)
        fwd, bwd = window_tables(stripped, None, cs_mode=False)
        ub = store.max(("C", 0)) - stripped.c_min
        ref = copy.deepcopy(store)
        want = _reference_filter(fwd, bwd, ref, stripped, ub)
        rec.case = (fwd, bwd, store, stripped)
        assert filter_with_dp(fwd, bwd, store, stripped, ub) is want
        assert store.snapshot() == ref.snapshot()
        assert (rec.shortcuts, rec.scans) == (inst.T, 0)


class TestPairPass:
    """Periods the shortcut leaves, with survivors on both sides and few
    enough pairs, are settled by one batched pass over their pairs."""

    @pytest.mark.parametrize("chunk", [None, 64])
    def test_matches_pair_matrix_reference(self, monkeypatch, chunk):
        """Holed roots, suffix and sub-windows, both cost modes, tight to
        loose bounds. A chunk of 64 pairs splits most calls' periods over
        several chunks and sends the larger periods to the general scan."""
        if chunk is not None:
            monkeypatch.setattr(dp_mod, "_PAIR_CHUNK", chunk)
        chunks, batched = [], [0]
        original = dp_mod._pair_chunk

        def recording(view, periods, ub):
            batched[0] += len(periods)
            chunks[-1] += 1
            return original(view, periods, ub)

        monkeypatch.setattr(dp_mod, "_pair_chunk", recording)
        rng = random.Random(61)
        cases = y_removals = 0
        for _ in range(3000):
            root = _holed_root(rng)
            if root is None:
                continue
            inst, store, stripped = root
            T = inst.T
            u = rng.randint(0, T - 1)
            window = rng.choice([None, (u, T - 1), (u, rng.randint(u, T - 1))])
            fwd, bwd = window_tables(stripped, window, cs_mode=rng.random() < 0.3)
            opt = fwd.optimum()
            if math.isinf(opt):
                continue
            ub = int(opt) + fwd.sunk + rng.choice([-1, 0, 0, 1, 5, 20, 100])
            ref = copy.deepcopy(store)
            open_y = [t for t in range(T) if store.intervals(("Y", t)) == ((0, 1),)]
            want = _reference_filter(fwd, bwd, ref, stripped, ub)
            chunks.append(0)
            assert filter_with_dp(fwd, bwd, store, stripped, ub) is want
            assert store.snapshot() == ref.snapshot()
            y_removals += sum(store.max(("Y", t)) == 0 for t in open_y)
            cases += 1
        assert cases >= 900 and y_removals >= 200, (cases, y_removals)
        assert batched[0] >= 1200, batched[0]
        if chunk is not None:
            assert sum(n > 1 for n in chunks) >= 40, sum(n > 1 for n in chunks)


class TestSupportMemory:
    def test_loose_bound_on_paper_scale_root_stays_small(self):
        """A loose bound supports nearly every pair; the C1LS root has about
        3,000 states per row, so one S x S matrix alone would take 72 MB."""
        params = dataclasses.replace(INSTANCE_CLASSES["C1LS"].params, seed=1)
        inst = validate_and_normalize(generate(params))
        store, stripped = setup_problem(inst)
        fwd, bwd = window_tables(stripped, None, cs_mode=False)
        assert max(len(row) for row in fwd.rows) > 3000
        ub = store.max(("C", 0)) - stripped.c_min
        tracemalloc.start()
        try:
            st = filter_with_dp(fwd, bwd, store, stripped, ub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st is not Status.FAILED
        assert peak < 16 * 2**20

    def test_near_bound_on_paper_scale_root_stays_small(self, monkeypatch):
        """The C1LS root against its stored optimum plus 0.5 %: most pairs
        fit, and 35 of the 40 periods hold more than ``_PAIR_CHUNK`` pairs
        (up to about 2.6M), so they take the general pass, whose column
        reads are cut into pieces of at most ``_BLOCK`` pairs."""
        calls = []
        original = dp_mod._support

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dp_mod, "_support", counting)
        params = dataclasses.replace(INSTANCE_CLASSES["C1LS"].params, seed=1)
        inst = validate_and_normalize(generate(params))
        store, stripped = setup_problem(inst)
        fwd, bwd = window_tables(stripped, None, cs_mode=False)
        opt = json.loads(_REFERENCES.read_text(encoding="ascii"))["optima"]["C1LS"]["1"]
        ub = opt + opt // 200 - stripped.c_min
        tracemalloc.start()
        try:
            st = filter_with_dp(fwd, bwd, store, stripped, ub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st is not Status.FAILED
        assert len(calls) == 35, len(calls)
        assert peak < 16 * 2**20

    def test_survivor_pass_on_table_over_block_stays_small(self):
        """The C1Peaks root holds about 2.9M states, many times ``_BLOCK``:
        the survivor pass works in runs of rows, where one pass over all
        rows at once would hold about ten float arrays of the whole table
        (over 200 MB). Both tables are built before measuring."""
        params = dataclasses.replace(INSTANCE_CLASSES["C1Peaks"].params, seed=1)
        inst = validate_and_normalize(generate(params))
        store, stripped = setup_problem(inst)
        fwd, bwd = window_tables(stripped, None, cs_mode=False)
        bwd.optimum()
        assert sum(len(row) for row in fwd.rows) > 10 * dp_mod._BLOCK
        ub = store.max(("C", 0)) - stripped.c_min
        tracemalloc.start()
        try:
            st = filter_with_dp(fwd, bwd, store, stripped, ub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st is not Status.FAILED
        assert peak < 32 * 2**20
