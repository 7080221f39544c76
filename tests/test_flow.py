"""Flow relaxations and the exact completion under fixed setups."""

import dataclasses
import heapq
import math
import random
from fractions import Fraction

import lotsizing.dp as dp_mod
from lotsizing import (
    INSTANCE_CLASSES,
    DisjunctiveSpec,
    DomainStore,
    FlowMode,
    Status,
    apply_disjunctions,
    bc_feasibility,
    complete_when_setups_fixed,
    generate,
    make_instance,
    min_cost_flow,
    strip_lower_bounds,
    validate_and_normalize,
    verify,
)
from lotsizing.dp import make_cost_view, window_tables
from lotsizing.flow import path_greedy, relaxation
from conftest import plan_costs, rand_normalized, store_plans
from test_dp import setup_problem as dp_setup_problem


def two_period():
    return make_instance(d=[2, 3], p=[1, 2], h=[1, 1], s=[5, 4], alpha_hi=[5, 5], beta_hi=[10, 10])


def setup_problem(inst):
    store = DomainStore.for_instance(inst)
    return store, strip_lower_bounds(inst, store)


def complete_at_bc(inst, store):
    """``complete_when_setups_fixed`` on a raw store: bound consistency
    first, as ``propagate`` guarantees, on a level popped again after."""
    store.push_level()
    try:
        if bc_feasibility(store, inst)[0] is Status.FAILED:
            return None
        return complete_when_setups_fixed(inst, strip_lower_bounds(inst, store))
    finally:
        store.pop_level()


class TestBuildNetwork:
    """The integer network of one mode: the arcs the strip carries and the
    rates ``relaxation`` puts on them."""

    def test_full_costs_amortize_setups(self):
        inst = two_period()
        store, stripped = setup_problem(inst)
        rate, hold, scale = relaxation(stripped, FlowMode.FULL)
        assert [Fraction(r, scale) for r in rate] == [1 + Fraction(5, 5), 2 + Fraction(4, 5)]
        assert scale == 5 and rate == [10, 14]
        assert stripped.x_cap == (5, 5)
        assert Fraction(hold[0], scale) == 1

    def test_y_zero_kills_arc(self):
        inst = two_period()
        store = DomainStore.for_instance(inst)
        store.assign(("Y", 0), 0)
        stripped = strip_lower_bounds(inst, store)
        assert stripped.x_cap[0] == 0 and stripped.charge[0] == 0 and stripped.sunk[0] == 0

    def test_cp_only_strips_other_costs(self):
        inst = two_period()
        store, stripped = setup_problem(inst)
        rate, hold, scale = relaxation(stripped, FlowMode.CP_ONLY)
        assert (rate, hold[:1], scale) == ([1, 2], [0], 1)

    def test_sunk_setup_moves_to_constant(self):
        inst = two_period()
        store = DomainStore.for_instance(inst)
        store.assign(("Y", 0), 1)
        stripped = strip_lower_bounds(inst, store)
        rate, _, scale = relaxation(stripped, FlowMode.FULL)
        assert stripped.sunk == (5, 0) and stripped.charge == (0, 4)
        assert Fraction(rate[0], scale) == 1


class TestMinCostFlow:
    def test_hand_checked_relaxation(self):
        inst = two_period()
        store, stripped = setup_problem(inst)
        rate, hold, scale = relaxation(stripped, FlowMode.FULL)
        spent, _, _ = path_greedy(stripped.x_cap, rate, hold, stripped.i_cap, stripped.d)
        assert Fraction(spent[-1], scale) == Fraction(62, 5)
        assert min_cost_flow(stripped, FlowMode.FULL) == 13

    def test_zero_demand(self):
        inst = make_instance(d=[0, 0], p=[1, 1], h=[1, 1], s=[1, 1], alpha_hi=[5, 5], beta_hi=[5, 5])
        store, stripped = setup_problem(inst)
        rate, hold, _ = relaxation(stripped, FlowMode.FULL)
        assert min_cost_flow(stripped, FlowMode.FULL) == 0
        assert path_greedy(stripped.x_cap, rate, hold, stripped.i_cap, stripped.d)[1] == [0, 0]

    def test_capacity_cut_infeasible(self):
        inst = make_instance(d=[10], p=[1], h=[1], s=[1], alpha_hi=[5], beta_hi=[5])
        store, stripped = setup_problem(inst)
        assert min_cost_flow(stripped, FlowMode.FULL) is None

    def test_flow_conservation_and_integrality(self):
        rng = random.Random(5)
        for _ in range(60):
            inst = rand_normalized(rng, max_T=5, with_lower_bounds=False)
            store, stripped = setup_problem(inst)
            rate, hold, _ = relaxation(stripped, FlowMode.FULL)
            spent, prod_flow, _ = path_greedy(stripped.x_cap, rate, hold, stripped.i_cap, stripped.d)
            if len(spent) < inst.T:
                assert min_cost_flow(stripped, FlowMode.FULL) is None
                continue
            inv = 0
            for t in range(inst.T):
                inv = inv + prod_flow[t] - stripped.d[t]
                assert 0 <= inv <= (stripped.i_cap[t] if t < inst.T - 1 else 0)
                assert isinstance(prod_flow[t], int) and prod_flow[t] <= stripped.x_cap[t]

    def test_bounds_dominated_by_true_costs(self):
        rng = random.Random(6)
        for _ in range(80):
            inst = rand_normalized(rng, max_T=5, max_d=4, max_cap=6, with_lower_bounds=False)
            store, stripped = setup_problem(inst)
            full = min_cost_flow(stripped, FlowMode.FULL)
            cp = min_cost_flow(stripped, FlowMode.CP_ONLY)
            ch = min_cost_flow(stripped, FlowMode.CH_ONLY)
            plans = [
                plan_costs(inst, x, i, y) for x, i, y in store_plans(inst, store)
            ]
            if not plans:
                assert full is None
                continue
            best_c = min(c for _, _, _, c in plans)
            assert full <= best_c
            assert cp <= min(v for v, _, _, _ in plans)
            assert ch <= min(v for _, v, _, _ in plans)


class TestAgainstGenericSolver:
    def test_matches_dijkstra_reference(self):
        """The specialized path solver must agree with a generic min-cost
        max-flow run on the reference network with exact rational costs:
        every integer rate over the scale is the reference cost, and the
        bound is the reference optimum rounded up."""
        rng = random.Random(17)
        for _ in range(120):
            store, stripped = setup_problem(
                rand_normalized(rng, max_T=6, max_d=5, max_cap=7, with_lower_bounds=False)
            )
            mode = rng.choice([FlowMode.FULL, FlowMode.CP_ONLY, FlowMode.CH_ONLY, FlowMode.CS_ONLY])
            net = reference_network(stripped, store, mode)
            rate, hold, scale = relaxation(stripped, mode)
            assert [Fraction(r, scale) for r in rate] == net.prod_cost
            assert [Fraction(h, scale) for h in hold[: net.n - 1]] == net.inv_cost
            got = min_cost_flow(stripped, mode)
            want_status, want_cost = _reference_solve(net)
            if want_status == "INFEASIBLE":
                assert got is None
                continue
            assert got == math.ceil(want_cost)
            spent, prod_flow, _ = path_greedy(stripped.x_cap, rate, hold, stripped.i_cap, stripped.d)
            assert Fraction(spent[-1], scale) + net.const == want_cost
            inv = 0
            for t in range(net.n):
                inv = inv + prod_flow[t] - net.demand[t]
                assert inv >= 0
                if t < net.n - 1:
                    assert inv <= net.inv_cap[t]
            assert inv == 0 or sum(net.demand) == 0


class MinCostFlowGraph:
    """Successive shortest paths with node potentials on a tiny graph.

    Costs must be non-negative (ints or Fractions); reverse arcs carry the
    negated cost and are handled through the potentials.
    """

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list = []

    def add_edge(self, u: int, v: int, cap: int, cost) -> int:
        if cost < 0:
            raise ValueError("arc costs must be non-negative")
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.adj[u].append(idx)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        self.adj[v].append(idx + 1)
        return idx

    def flow_on(self, arc: int) -> int:
        return self.cap[arc ^ 1]

    def solve(self, s: int, t: int, target: int):
        """Push min-cost flow from s to t up to ``target`` units.

        Returns (flow_shipped, total_cost); stops early when t becomes
        unreachable, so a short shipment signals infeasibility to the caller.
        """
        n, to, cap, cost, adj = self.n, self.to, self.cap, self.cost, self.adj
        pi = [0] * n
        flow = 0
        total = 0
        while flow < target:
            dist = [math.inf] * n
            parent_arc = [-1] * n
            dist[s] = 0
            heap = [(0, s)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for e in adj[u]:
                    if cap[e] <= 0:
                        continue
                    v = to[e]
                    nd = d + cost[e] + pi[u] - pi[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        parent_arc[v] = e
                        heapq.heappush(heap, (nd, v))
            if dist[t] == math.inf:
                break
            for v in range(n):
                if dist[v] != math.inf:
                    pi[v] = pi[v] + dist[v]
            push = target - flow
            v = t
            while v != s:
                e = parent_arc[v]
                push = min(push, cap[e])
                v = to[e ^ 1]
            v = t
            while v != s:
                e = parent_arc[v]
                cap[e] -= push
                cap[e ^ 1] += push
                total = total + push * cost[e]
                v = to[e ^ 1]
            flow += push
        return flow, total


def _reference_solve(net):
    from fractions import Fraction as F

    dens = [c.denominator for c in net.prod_cost if isinstance(c, F)]
    scale = 1
    for d in dens:
        scale = scale * d // __import__("math").gcd(scale, d)
    g = MinCostFlowGraph(net.n + 2)
    source, sink = 0, net.n + 1
    for t in range(net.n):
        if net.prod_cap[t] > 0:
            g.add_edge(source, 1 + t, net.prod_cap[t], int(net.prod_cost[t] * scale))
        if net.demand[t] > 0:
            g.add_edge(1 + t, sink, net.demand[t], 0)
        if t < net.n - 1 and net.inv_cap[t] > 0:
            g.add_edge(1 + t, 2 + t, net.inv_cap[t], net.inv_cost[t] * scale)
    shipped, cost = g.solve(source, sink, sum(net.demand))
    if shipped < sum(net.demand):
        return "INFEASIBLE", None
    return "OPTIMAL", F(cost, scale) + net.const


class TestCompletion:
    def test_single_setup_completion(self):
        inst = two_period()
        store = DomainStore.for_instance(inst)
        store.assign(("Y", 0), 1)
        store.assign(("Y", 1), 0)
        sol = complete_at_bc(inst, store)
        assert sol.x == (5, 0) and sol.i == (3, 0) and sol.c == 13

    def test_both_setups_completion(self):
        inst = two_period()
        store = DomainStore.for_instance(inst)
        store.assign(("Y", 0), 1)
        store.assign(("Y", 1), 1)
        sol = complete_at_bc(inst, store)
        assert sol.c == 17

    def test_no_setups_infeasible(self):
        inst = two_period()
        store = DomainStore.for_instance(inst)
        store.assign(("Y", 0), 0)
        store.assign(("Y", 1), 0)
        assert complete_at_bc(inst, store) is None

    def test_completion_is_min_cost_over_fixed_y(self):
        rng = random.Random(9)
        checked = 0
        for _ in range(150):
            inst = rand_normalized(rng, max_T=4, max_d=4, max_cap=6)
            store = DomainStore.for_instance(inst)
            for t in range(inst.T):
                store.assign(("Y", t), rng.randint(0, 1))
            if store.failed:
                continue
            sol = complete_at_bc(inst, store)
            matching = [
                plan_costs(inst, x, i, y)[3]
                for x, i, y in store_plans(inst, store)
                if all(y[t] == store.value(("Y", t)) for t in range(inst.T))
            ]
            if not matching:
                assert sol is None
                continue
            assert sol is not None
            assert sol.c == min(matching)
            assert verify(inst, None, sol)[0]
            checked += 1
        assert checked >= 20

    def test_respects_lower_bounds(self):
        inst = validate_and_normalize(
            make_instance(
                d=[2, 1], p=[1, 3], h=[1, 1], s=[4, 4],
                alpha_lo=[2, 0], alpha_hi=[6, 6], beta_lo=[1, 0], beta_hi=[6, 6],
            )
        )
        store = DomainStore.for_instance(inst)
        for t in range(inst.T):
            store.assign(("Y", t), 1 if inst.alpha_lo[t] > 0 or inst.d[t] > 0 else 0)
        sol = complete_at_bc(inst, store)
        if sol is not None:
            assert all(sol.x[t] >= inst.alpha_lo[t] for t in range(inst.T))
            assert all(sol.i[t] >= inst.beta_lo[t] for t in range(inst.T))
            assert verify(inst, None, sol)[0]


class TestCompletionAgainstDp:
    def test_matches_whole_horizon_dp(self):
        """Beyond brute-force sizes: with random fixed setups the completion
        is None exactly when the whole-horizon DP (after bound consistency
        and stripping) is infeasible, and otherwise costs its optimum."""
        rng = random.Random(23)
        feasible = infeasible = 0
        for _ in range(1500):
            inst = rand_normalized(rng, max_T=12, max_d=5, max_cap=12)
            store = DomainStore.for_instance(inst)
            for t in range(inst.T):
                store.assign(("Y", t), 1 if rng.random() < 0.8 else 0)
            if store.failed:
                continue
            sol = complete_at_bc(inst, store)
            _, stripped = dp_setup_problem(inst, store)
            if stripped is None:
                assert sol is None
                infeasible += 1
                continue
            fwd, _ = window_tables(stripped, None, cs_mode=False)
            if math.isinf(fwd.optimum()):
                assert sol is None
                infeasible += 1
                continue
            assert sol is not None
            assert sol.c == fwd.optimum() + fwd.sunk + stripped.c_min
            assert verify(inst, None, sol)[0]
            assert all(
                store.contains(("X", t), sol.x[t]) and store.contains(("I", t), sol.i[t])
                and sol.y[t] == store.value(("Y", t))
                for t in range(inst.T)
            )
            feasible += 1
        assert feasible >= 300 and infeasible >= 300


def _registry_root(cls: str, seed: int):
    """A registry instance after bound consistency at the root, with the
    class's disjunctions posted; None when that refutes it."""
    template = INSTANCE_CLASSES[cls]
    params = dataclasses.replace(template.params, seed=seed)
    inst = validate_and_normalize(generate(params))
    store = DomainStore.for_instance(inst)
    if template.disjunction:
        apply_disjunctions(store, DisjunctiveSpec.uniform(params.T, template.disjunction))
    if store.failed or bc_feasibility(store, inst)[0] is Status.FAILED:
        return None
    return store, strip_lower_bounds(inst, store)


def _fuzz_states(rng: random.Random, count: int):
    """Stores with random setups fixed and bounds tightened, and their
    strips; most after bound consistency, some without, where inventory
    bounds can exceed the demand still to serve."""
    while count:
        inst = rand_normalized(rng, max_T=8, max_d=6, max_cap=9)
        store = DomainStore.for_instance(inst)
        if rng.random() < 0.5:
            store.assign(("Y", rng.randrange(inst.T)), 1)
        for _ in range(rng.randint(0, 5)):
            key = (rng.choice("XIY"), rng.randrange(inst.T))
            store.tighten(key, rng.choice(("set_min", "set_max", "assign")), rng.randint(store.min(key), store.max(key)))
        if store.failed or (rng.random() < 0.7 and bc_feasibility(store, inst)[0] is Status.FAILED):
            continue
        try:
            stripped = strip_lower_bounds(inst, store)
        except ValueError:  # a negative adjusted demand without bound consistency
            continue
        count -= 1
        yield store, stripped


@dataclasses.dataclass
class FlowNetwork:
    """A relaxation network with exact rational arc costs."""

    n: int
    prod_cap: list
    prod_cost: list
    inv_cap: list
    inv_cost: list
    demand: list
    const: int


def reference_network(stripped, store, mode, window=None) -> FlowNetwork:
    """Each mode's network built on its own, period by period, with
    ``Fraction`` costs: the reference that the integer arcs of the strip
    and ``flow.relaxation`` must reproduce exactly,
    rate over scale for every period. With a ``window``
    (u, v), demands and setup costs outside u..v are zeroed and periods past
    v dropped: the network whose optimum the window flow bounds must reach."""
    u, v = (0, stripped.T - 1) if window is None else window
    n = v + 1
    prod_cap, prod_cost, demand = [], [], []
    inv_cap, inv_cost = [], []
    const = 0
    for t in range(n):
        cap = min(stripped.x_cap[t], store.max(("X", t)) - stripped.x_off[t])
        y_lo = store.min(("Y", t))
        y_hi = store.max(("Y", t))
        if y_hi == 0:
            cap = 0
        in_window = u <= t <= v
        s_eff = stripped.s[t] if in_window else 0
        if y_lo == 1 and s_eff > 0:
            if mode in (FlowMode.FULL, FlowMode.CS_ONLY):
                const += s_eff
            s_eff = 0
        cap = max(cap, 0)
        if mode is FlowMode.CP_ONLY:
            cost = stripped.p[t]
        elif mode is FlowMode.CH_ONLY:
            cost = 0
        elif mode is FlowMode.CS_ONLY:
            cost = Fraction(s_eff, cap) if (cap > 0 and s_eff > 0) else 0
        else:
            cost = Fraction(stripped.p[t] * cap + s_eff, cap) if (cap > 0 and s_eff > 0) else stripped.p[t]
        prod_cap.append(cap)
        prod_cost.append(cost)
        demand.append(stripped.d[t] if in_window else 0)
        if t < n - 1:
            icap = min(stripped.i_cap[t], store.max(("I", t)) - stripped.i_off[t])
            inv_cap.append(max(icap, 0))
            inv_cost.append(stripped.h[t] if mode in (FlowMode.FULL, FlowMode.CH_ONLY) else 0)
    return FlowNetwork(n, prod_cap, prod_cost, inv_cap, inv_cost, demand, const)


class TestDerivedNetworks:
    """Every mode's network is derived from the arcs the strip carries;
    ``dp.table_fits`` sizes the whole-horizon table from the strip alone.
    Both must match their references exactly."""

    def _check(self, store, stripped):
        T = stripped.T
        for mode in FlowMode:
            ref = reference_network(stripped, store, mode)
            rate, hold, scale = relaxation(stripped, mode)
            assert list(stripped.x_cap) == ref.prod_cap and list(stripped.i_cap[: T - 1]) == ref.inv_cap, mode
            assert [Fraction(r, scale) for r in rate] == ref.prod_cost, mode
            assert [Fraction(h, scale) for h in hold[: T - 1]] == ref.inv_cost, mode
            # the least common scale: the lcm of the reference denominators
            assert scale == math.lcm(*(Fraction(c).denominator for c in ref.prod_cost)), mode
            sunk = sum(stripped.sunk) if mode in (FlowMode.FULL, FlowMode.CS_ONLY) else 0
            assert sunk == ref.const, mode
            assert list(stripped.d) == ref.demand

    def test_registry_roots(self, monkeypatch):
        roots = 0
        for cls in INSTANCE_CLASSES:
            for seed in (1, 2, 3):
                root = _registry_root(cls, seed)
                if root is None:
                    continue
                store, stripped = root
                self._check(store, stripped)
                states = sum(make_cost_view(stripped).row_cap) + stripped.T + 1
                monkeypatch.setattr(dp_mod, "_TABLE_CAP", states)
                assert dp_mod.table_fits(stripped)
                monkeypatch.setattr(dp_mod, "_TABLE_CAP", states - 1)
                assert not dp_mod.table_fits(stripped)
                roots += 1
        assert roots >= 100

    def test_fuzz_states(self, monkeypatch):
        rng = random.Random(29)
        sunk = 0
        for store, stripped in _fuzz_states(rng, 600):
            T = stripped.T
            self._check(store, stripped)
            view = make_cost_view(stripped)
            monkeypatch.setattr(dp_mod, "_TABLE_CAP", rng.randint(T, 4 * T + sum(view.row_cap)))
            assert dp_mod.table_fits(stripped) == (sum(view.row_cap) + len(view.row_cap) <= dp_mod._TABLE_CAP)
            sunk += sum(stripped.sunk) > 0
        assert sunk >= 50
