"""Acceptance suite: one test per criterion, each printing a PASS line.

Ground truth throughout is exhaustive enumeration (the oracle and the
store-level plan enumerator); tolerances are zero on every cost comparison.
"""

import math
import random
import time


from lotsizing import (
    DisjunctiveSpec,
    DomainStore,
    GeneratorParams,
    LotSizingConfig,
    LotSizingConstraint,
    PropagateResult,
    QRSpec,
    SearchConfig,
    SideSpecs,
    Status,
    bc_feasibility,
    brute_force_oracle,
    dpls_backward,
    dpls_forward,
    enumerate_subproblems,
    generate,
    make_instance,
    solve,
    strip_lower_bounds,
    validate_and_normalize,
)
from lotsizing.domains import iv_values
from lotsizing.dp import state_budget, make_cost_view
from lotsizing.flow import FlowMode, build_network, min_cost_flow
from lotsizing.instance import PEAK_PERIODS_1BASED
from lotsizing.wisp import COST_C, bound_subproblem, compute_decomposition
from conftest import rand_instance, store_plans

PASS = "ACCEPTANCE {n} {name}: PASS"


def bc_strip(inst, store=None, side=None):
    """Root store with side specs applied and bound consistency done."""
    from lotsizing.side_constraints import apply_disjunctions

    store = store or DomainStore.for_instance(inst)
    if side is not None and side.disjunction is not None:
        if apply_disjunctions(store, side.disjunction) is Status.FAILED:
            return store, None
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


def suite_instance(rng):
    """Criterion-1 suite: T <= 6, demands <= 6, caps <= 8, random lower
    bounds, a quarter with disjunctions and a quarter with Q/R."""
    inst = validate_and_normalize(rand_instance(rng, max_T=6, max_d=6, max_cap=8))
    roll = rng.random()
    if roll < 0.25:
        cap = max(inst.alpha_hi)
        a = rng.randint(0, 1)
        b = rng.randint(a, max(a, min(3, cap)))
        c = b + 2
        side = SideSpecs(disjunction=DisjunctiveSpec.uniform(inst.T, ((a, b), (c, c + 2))))
    elif roll < 0.5:
        q = rng.randint(1, 2)
        side = SideSpecs(qr=QRSpec(q, rng.randint(q, q + 3)))
    else:
        side = None
    return inst, side


class TestCriterion1:
    def test_oracle_exactness(self):
        rng = random.Random(20260808)
        start = time.perf_counter()
        n = 0
        while n < 500:
            inst, side = suite_instance(rng)
            want = brute_force_oracle(inst, side)
            got, stats = solve(inst, side)
            if want is None:
                assert got is None and stats.status == "INFEASIBLE"
            else:
                assert got is not None and stats.status == "OPT"
                assert got.c == want.c
            n += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
        print(PASS.format(n=1, name=f"oracle exactness ({n} instances, {elapsed:.1f}s)"))


class TestCriterion2:
    def test_dp_equals_oracle_and_directions_agree(self):
        rng = random.Random(20260809)
        n = 0
        while n < 500:
            inst, side = suite_instance(rng)
            # The DP models domains (holes included) but not Q/R; drop Q/R
            # from both sides of the comparison.
            side = SideSpecs(disjunction=side.disjunction) if side is not None else None
            store, stripped = bc_strip(inst, side=side)
            want = brute_force_oracle(inst, side)
            if stripped is None:
                assert want is None
                n += 1
                continue
            fwd = dpls_forward(stripped, store)
            bwd = dpls_backward(stripped, store)
            assert fwd.optimum() == bwd.optimum()
            if want is None:
                assert math.isinf(fwd.optimum())
            else:
                assert not math.isinf(fwd.optimum())
                assert int(fwd.optimum()) + fwd.sunk + stripped.c_min == want.c
            n += 1
        print(PASS.format(n=2, name=f"DP forward/backward vs oracle ({n} instances)"))


class TestCriterion3:
    def test_bound_hierarchy_and_disjoint_sums(self):
        rng = random.Random(20260810)
        checked = 0
        while checked < 60:
            inst = validate_and_normalize(rand_instance(rng, max_T=5, max_d=5, max_cap=7, with_lower_bounds=False))
            if inst.T < 2:
                continue
            store, stripped = bc_strip(inst)
            if stripped is None:
                continue
            want = brute_force_oracle(inst)
            if want is None:
                continue
            full = min_cost_flow(build_network(stripped, store, FlowMode.FULL))
            assert full.integer_lower_bound + stripped.c_min <= want.c
            subs = enumerate_subproblems(inst.T)
            for sub in subs:
                sub.w, sub.bound_kind = bound_subproblem(stripped, store, sub, COST_C)
            decomp = compute_decomposition(stripped, store, COST_C)
            assert decomp.value + stripped.c_min <= want.c

            def disjoint_subsets(idx, chosen, total):
                yield total
                for k in range(idx, len(subs)):
                    s = subs[k]
                    if all(o.v < s.u or o.u > s.v for o in chosen):
                        chosen.append(s)
                        yield from disjoint_subsets(k + 1, chosen, total + s.w)
                        chosen.pop()

            for total in disjoint_subsets(0, [], 0.0):
                assert total + stripped.c_min <= want.c
            checked += 1
        print(PASS.format(n=3, name=f"bound hierarchy + disjoint sums ({checked} instances)"))


class TestCriterion4:
    def test_range_consistency_and_wake_counts(self):
        rng = random.Random(20260811)
        n = 0
        while n < 200:
            inst = validate_and_normalize(rand_instance(rng, max_T=5, max_d=5, max_cap=7))
            store = DomainStore.for_instance(inst)
            st, wakes = bc_feasibility(store, inst)
            assert all(count <= 2 for count in wakes.values())
            plans = list(store_plans(inst, DomainStore.for_instance(inst)))
            if st is Status.FAILED:
                assert not plans
                n += 1
                continue
            witnessed = {("X", t): set() for t in range(inst.T)}
            witnessed.update({("I", t): set() for t in range(inst.T)})
            witnessed.update({("Y", t): set() for t in range(inst.T)})
            for x, i, y in store_plans(inst, store):
                for t in range(inst.T):
                    witnessed[("X", t)].add(x[t])
                    witnessed[("I", t)].add(i[t])
                    witnessed[("Y", t)].add(y[t])
            for key, vals in witnessed.items():
                assert set(iv_values(store.intervals(key))) <= vals
            n += 1
        print(PASS.format(n=4, name=f"range consistency after BC ({n} instances)"))


def dp_optimum(inst, side=None):
    store, stripped = bc_strip(inst, side=side)
    if stripped is None:
        return None
    fwd = dpls_forward(stripped, store)
    if math.isinf(fwd.optimum()):
        return None
    return int(fwd.optimum()) + fwd.sunk + stripped.c_min


class TestCriterion5:
    def test_backtrack_free_at_optimal_bound(self):
        results = []
        for seed in range(10):
            params = GeneratorParams(d_avg=100, delta=10, theta_lo=0.8, theta_hi=1.0,
                                     lam=3, T=40, seed=1000 + seed)
            inst = validate_and_normalize(generate(params))
            opt = dp_optimum(inst)
            t0 = time.perf_counter()
            sol, stats = solve(inst, None, SearchConfig(ub=opt))
            elapsed = time.perf_counter() - t0
            assert stats.status == "OPT" and sol.c == opt
            assert stats.nodes <= 2 * inst.T, f"seed {seed}: {stats.nodes} nodes"
            assert elapsed < 5.0, f"seed {seed}: {elapsed:.1f}s"
            results.append(stats.backtracks)
        backtrack_free = sum(1 for b in results if b == 0)
        assert backtrack_free >= 8, f"only {backtrack_free}/10 backtrack free: {results}"
        print(PASS.format(n=5, name=f"single-item analogs ({backtrack_free}/10 backtrack free)"))


class TestCriterion6:
    def test_disjunctive_analogs_near_root(self):
        side = SideSpecs(disjunction=DisjunctiveSpec.uniform(40, ((0, 30), (100, 150), (200, 240))))
        for seed in range(10):
            params = GeneratorParams(d_avg=100, delta=50, theta_lo=0.8, theta_hi=1.0,
                                     lam=5, T=40, seed=2000 + seed)
            inst = validate_and_normalize(generate(params))
            opt = dp_optimum(inst, side)
            assert opt is not None
            t0 = time.perf_counter()
            sol, stats = solve(inst, side, SearchConfig(ub=opt))
            elapsed = time.perf_counter() - t0
            assert stats.status == "OPT" and sol.c == opt
            assert stats.nodes <= 5, f"seed {seed}: {stats.nodes} nodes"
            assert elapsed < 1.0, f"seed {seed}: {elapsed:.2f}s"
        print(PASS.format(n=6, name="disjunctive analogs (nodes <= 5, < 1s each)"))


class TestCriterion7:
    def test_wisp_fallback_completes_and_dominates_flow(self):
        peaks = tuple(t - 1 for t in PEAK_PERIODS_1BASED)
        for seed in range(3):
            params = GeneratorParams(d_avg=100, delta=50, theta_lo=0.8, theta_hi=1.0,
                                     lam=4, T=40, seed=seed,
                                     peak_value=5000, peak_periods=peaks)
            inst = validate_and_normalize(generate(params))
            store, stripped = bc_strip(inst)
            assert state_budget(make_cost_view(stripped, store, None)) > 20_000_000
            opt = dp_optimum(inst)
            flow_lb = (
                min_cost_flow(build_network(stripped, store, FlowMode.FULL)).integer_lower_bound
                + stripped.c_min
            )
            t0 = time.perf_counter()
            sol, stats = solve(inst, None, SearchConfig(ub=opt, time_limit=60.0))
            elapsed = time.perf_counter() - t0
            assert stats.status == "OPT" and sol.c == opt, f"seed {seed}"
            assert elapsed < 60.0, f"seed {seed}: {elapsed:.1f}s"
            assert stats.root_lb >= flow_lb
        print(PASS.format(n=7, name="WISP fallback on peak analogs"))

    def test_forced_wisp_completes_and_dominates_flow(self):
        # The sibling above now runs the whole-horizon DP (its tables hold
        # about 3e5 states); this one keeps WISP covered at that scale.
        peaks = tuple(t - 1 for t in PEAK_PERIODS_1BASED)
        for seed in range(3):
            params = GeneratorParams(d_avg=100, delta=50, theta_lo=0.8, theta_hi=1.0,
                                     lam=4, T=40, seed=seed,
                                     peak_value=5000, peak_periods=peaks)
            inst = validate_and_normalize(generate(params))
            store, stripped = bc_strip(inst)
            assert state_budget(make_cost_view(stripped, store, None)) > 20_000_000
            opt = dp_optimum(inst)
            flow_lb = (
                min_cost_flow(build_network(stripped, store, FlowMode.FULL)).integer_lower_bound
                + stripped.c_min
            )
            t0 = time.perf_counter()
            sol, stats = solve(inst, None, SearchConfig(ub=opt, time_limit=60.0, filter_mode="wisp"))
            elapsed = time.perf_counter() - t0
            assert stats.status == "OPT" and sol.c == opt, f"seed {seed}"
            assert elapsed < 60.0, f"seed {seed}: {elapsed:.1f}s"
            assert stats.root_lb >= flow_lb
        print(PASS.format(n=7, name="forced WISP on peak analogs"))

    def test_windowed_filtering_sound_on_small_peaks(self):
        rng = random.Random(20260812)
        tested = 0
        while tested < 25:
            T = 8
            d = [rng.randint(0, 2) for _ in range(T)]
            d[2] = d[3] = 8
            cap = 8
            inst = validate_and_normalize(make_instance(
                d=d, p=[rng.randint(0, 3) for _ in range(T)], h=[1] * T,
                s=[rng.randint(0, 9) for _ in range(T)],
                alpha_hi=[cap] * T, beta_hi=[cap] * T,
            ))
            summary = _plan_value_summary(inst)
            if summary is None:
                continue
            opt, xvals, ivals, y1_cost, y0_cost = summary
            ub = opt + rng.choice([0, 1, 3])
            store = DomainStore.for_instance(inst)
            store.set_max(("C", 0), ub)
            ls = LotSizingConstraint(inst, store, LotSizingConfig(dp_budget=200, filter_mode="wisp"))
            res, sol = ls.propagate()
            if res is PropagateResult.FAILED:
                raise AssertionError("a reachable bound must stay feasible")
            if res is PropagateResult.COMPLETED:
                assert sol.c <= ub
            else:
                for t in range(inst.T):
                    for val, c in xvals[t].items():
                        if c <= ub:
                            assert store.contains(("X", t), val), (inst, "X", t, val)
                    for val, c in ivals[t].items():
                        if c <= ub:
                            assert store.contains(("I", t), val), (inst, "I", t, val)
                    if y1_cost[t] <= ub:
                        assert store.contains(("Y", t), 1), (inst, "Y1", t)
                    if y0_cost[t] <= ub:
                        assert store.contains(("Y", t), 0), (inst, "Y0", t)
            tested += 1
        print(PASS.format(n=7, name=f"windowed filtering sound on shrunken peaks ({tested} instances)"))


def _plan_value_summary(inst):
    """Per-variable cheapest plan cost for every value, by exhaustive sweep
    over production plans (minimal setups; an idle setup at t adds s[t])."""
    T = inst.T
    INF2 = math.inf
    xvals = [dict() for _ in range(T)]
    ivals = [dict() for _ in range(T)]
    y1 = [INF2] * T
    y0 = [INF2] * T
    best = [INF2]

    def leaf(xs, invs):
        cp = sum(inst.p[t] * xs[t] for t in range(T))
        ch = sum(inst.h[t] * invs[t] for t in range(T))
        cs = sum(inst.s[t] for t in range(T) if xs[t] > 0)
        c = cp + ch + cs
        best[0] = min(best[0], c)
        for t in range(T):
            if c < xvals[t].get(xs[t], INF2):
                xvals[t][xs[t]] = c
            if c < ivals[t].get(invs[t], INF2):
                ivals[t][invs[t]] = c
            if xs[t] > 0:
                y1[t] = min(y1[t], c)
            else:
                y0[t] = min(y0[t], c)
                y1[t] = min(y1[t], c + inst.s[t])

    xs, invs = [], []

    def rec(t, inv):
        if t == T:
            leaf(xs, invs)
            return
        for x in range(inst.alpha_lo[t], inst.alpha_hi[t] + 1):
            nxt = inv + x - inst.d[t]
            if nxt < inst.beta_lo[t] or nxt > inst.beta_hi[t]:
                continue
            if t == T - 1 and nxt != 0:
                continue
            xs.append(x)
            invs.append(nxt)
            rec(t + 1, nxt)
            xs.pop()
            invs.pop()

    rec(0, 0)
    if math.isinf(best[0]):
        return None
    return int(best[0]), xvals, ivals, y1, y0


class TestCriterion8:
    def test_filtering_soundness_fuzz(self):
        rng = random.Random(20260813)
        pairs = 0
        instances = 0
        while pairs < 10_000:
            inst, side = suite_instance_small(rng)
            base_plans = []
            from lotsizing import enumerate_plans

            for sol in enumerate_plans(inst, side, include_idle_setups=True):
                base_plans.append(sol)
            instances += 1
            if not base_plans:
                ubs = [rng.randint(0, 30) for _ in range(2)]
                for ub in ubs:
                    assert_root_filter_sound(inst, side, ub, base_plans)
                    pairs += 1
                continue
            costs = sorted(s.c for s in base_plans)
            opt = costs[0]
            candidates = [opt, opt + 1, opt + rng.randint(2, 6), max(0, opt - 1), costs[len(costs) // 2]]
            for ub in candidates:
                assert_root_filter_sound(inst, side, ub, base_plans)
                pairs += 1
        print(PASS.format(n=8, name=f"filtering soundness fuzz ({pairs} pairs, {instances} instances)"))


def suite_instance_small(rng):
    inst = validate_and_normalize(rand_instance(rng, max_T=5, max_d=4, max_cap=6))
    roll = rng.random()
    if roll < 0.25:
        cap = max(inst.alpha_hi)
        a = rng.randint(0, 1)
        b = rng.randint(a, max(a, min(2, cap)))
        side = SideSpecs(disjunction=DisjunctiveSpec.uniform(inst.T, ((a, b), (b + 2, b + 4))))
    elif roll < 0.5:
        q = rng.randint(1, 2)
        side = SideSpecs(qr=QRSpec(q, rng.randint(q, q + 2)))
    else:
        side = None
    return inst, side


def assert_root_filter_sound(inst, side, ub, plans):
    from lotsizing.search import build_model, _propagate_all

    config = SearchConfig(hole_punch=True)
    store, ls, seq, root_ok = build_model(inst, side, config)
    ls.config.hole_punch = True
    if not root_ok:
        assert not plans
        return
    if store.set_max(("C", 0), ub) is Status.FAILED:
        assert all(s.c > ub for s in plans)
        return
    res, sol = _propagate_all(store, ls, seq, side)
    ok_plans = [s for s in plans if s.c <= ub]
    if res is PropagateResult.FAILED:
        assert not ok_plans, f"failed with {len(ok_plans)} plans <= {ub}"
        return
    if res is PropagateResult.COMPLETED:
        assert sol.c <= ub
        return
    for s in ok_plans:
        for t in range(inst.T):
            assert store.contains(("X", t), s.x[t]), (inst, side, ub, s)
            assert store.contains(("I", t), s.i[t]), (inst, side, ub, s)
            assert store.contains(("Y", t), s.y[t]), (inst, side, ub, s)


class TestCriterion9:
    def test_trail_integrity(self):
        rng = random.Random(20260814)
        inst = make_instance(d=[3, 1, 4, 2], p=[1] * 4, h=[1] * 4, s=[2] * 4,
                             alpha_hi=[7] * 4, beta_hi=[9] * 4)
        store = DomainStore.for_instance(inst)
        keys = [("X", t) for t in range(4)] + [("I", t) for t in range(4)]
        keys += [("Y", t) for t in range(4)] + [("C", 0), ("Cp", 0), ("Ch", 0), ("Cs", 0)]
        stack = []
        ops = 0
        while ops < 100_000:
            roll = rng.random()
            if roll < 0.2 and store.level < 40:
                stack.append(store.snapshot())
                store.push_level()
            elif roll < 0.4 and stack:
                store.pop_level()
                assert store.snapshot() == stack.pop()
            else:
                key = rng.choice(keys)
                kind = rng.choice(["set_min", "set_max", "remove_value", "assign"])
                store.tighten(key, kind, rng.randint(-3, 12))
            ops += 1
        while stack:
            store.pop_level()
            assert store.snapshot() == stack.pop()
        print(PASS.format(n=9, name=f"trail integrity ({ops} ops)"))
