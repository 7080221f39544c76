"""Minimum-cost network flow over the lot-sizing graph.

The linear relaxation of the problem is a min-cost flow on a path-shaped
network: a source feeds per-period production arcs, inventory arcs chain the
periods, and each period ships its demand to the sink. Production arc costs
amortize the setup cost over the capacity (``p_t + s_t / cap_t``), which is
what makes the relaxation valid. Restricting the cost vector gives dedicated
lower bounds for the production-cost, holding-cost and setup-cost variables.
The four networks of one set of domains differ only in their costs:
``build_network`` assembles the FULL network and ``derive_network`` turns it
into any other mode's, so the propagator builds once and derives the other
three, one build and four cost vectors.

One integer greedy, ``path_greedy``, solves every instance of this network:
the whole-horizon relaxations (``min_cost_flow``, rates scaled to integers),
the flow bounds of all windows (u, v) with one pass per start u
(``window_flow_bounds``), the pre-stock that seeds a window's DP table, the
stock a zero-demand pass over the periods before the window holds at its
end (``pre_stock``, unit costs p and h), and the exact completion once
every setup is fixed (``propagator.complete_when_setups_fixed``, unit costs
p and h).
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .domains import DomainStore
from .instance import StrippedInstance


class FlowMode(enum.Enum):
    FULL = "full"
    CP_ONLY = "cp_only"
    CH_ONLY = "ch_only"
    CS_ONLY = "cs_only"


INFEASIBLE = "INFEASIBLE"
OPTIMAL = "OPTIMAL"


@dataclass
class FlowNetwork:
    """Arc data of the relaxation network under one set of domains."""

    n: int
    prod_cap: list[int]
    prod_cost: list
    inv_cap: list[int]
    inv_cost: list[int]
    demand: list[int]
    const: int


@dataclass
class FlowResult:
    status: str
    prod_flow: tuple[int, ...]
    inv_flow: tuple[int, ...]
    total_cost: Fraction
    integer_lower_bound: int


def build_network(stripped: StrippedInstance, store: DomainStore, mode: FlowMode) -> FlowNetwork:
    """Assemble the relaxation network under the current domains. Setup
    costs of periods whose Y is already fixed to 1 move into the constant
    (they are sunk), tightening the relaxation.
    """
    n = stripped.T
    prod_cap, prod_cost = [], []
    inv_cap = []
    const = 0
    for t in range(n):
        cap = min(stripped.x_cap[t], store.max(("X", t)) - stripped.x_off[t])
        if store.max(("Y", t)) == 0:
            cap = 0
        s_eff = stripped.s[t]
        if store.min(("Y", t)) == 1:
            const += s_eff
            s_eff = 0
        cap = max(cap, 0)
        prod_cap.append(cap)
        prod_cost.append(Fraction(stripped.p[t] * cap + s_eff, cap) if (cap > 0 and s_eff > 0) else stripped.p[t])
        if t < n - 1:
            icap = min(stripped.i_cap[t], store.max(("I", t)) - stripped.i_off[t])
            inv_cap.append(max(icap, 0))
    full = FlowNetwork(
        n=n,
        prod_cap=prod_cap,
        prod_cost=prod_cost,
        inv_cap=inv_cap,
        inv_cost=list(stripped.h[: n - 1]),
        demand=list(stripped.d),
        const=const,
    )
    return derive_network(full, stripped, mode)


def derive_network(full: FlowNetwork, stripped: StrippedInstance, mode: FlowMode) -> FlowNetwork:
    """The ``mode`` network of the instance and domains that ``full`` (the
    FULL network) was built from. The four modes share capacities and
    demands; CP_ONLY keeps the unit costs p, CH_ONLY the holding costs, and
    CS_ONLY the amortized setups (FULL's production costs minus p) with the
    sunk setups as its constant."""
    if mode is FlowMode.FULL:
        return full
    n = full.n
    p = stripped.p[:n]
    no_hold = [0] * (n - 1)
    if mode is FlowMode.CP_ONLY:
        prod_cost, inv_cost, const = list(p), no_hold, 0
    elif mode is FlowMode.CH_ONLY:
        prod_cost, inv_cost, const = [0] * n, full.inv_cost, 0
    else:
        prod_cost = [c - pt for c, pt in zip(full.prod_cost, p)]
        inv_cost, const = no_hold, full.const
    return FlowNetwork(
        n=n,
        prod_cap=full.prod_cap,
        prod_cost=prod_cost,
        inv_cap=full.inv_cap,
        inv_cost=inv_cost,
        demand=full.demand,
        const=const,
    )


def path_greedy(cap, rate, hold, inv_cap, demand) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """Min-cost flow on the path network, one period at a time.

    Arc data are integers: production arc t carries ``cap[t]`` units at
    ``rate[t]`` each, inventory arc t -> t+1 carries ``inv_cap[t]`` at
    ``hold[t]``. Successive shortest paths specialize here to serving each
    demand from the cheapest available source, with holding prefix sums as
    node potentials; crossing an inventory arc evicts all but its capacity's
    worth of cheapest stock, since surplus units can never pass. Only the
    multiset of used source units determines the cost, so the greedy is
    exact, and each period is settled from earlier periods only.

    Returns ``(spent, prod_flow, stock)``. ``spent[t]`` is the optimum of
    the network cut after period t; the list stops short at the first period
    whose demand cannot be met. ``stock`` lists the units held when the
    greedy stops (after its last period once every demand is met), per
    source as (unit cost delivered there, units).
    """
    n = len(cap)
    # heap entries reference units[k]; lazily discarded when emptied
    cheap: list = []
    rich: list = []
    units: list[int] = []
    srcs: list[int] = []
    avail = 0
    h_prefix = 0
    cost = 0
    spent: list[int] = []
    prod_flow = [0] * n
    for t in range(n):
        if cap[t] > 0:
            k = len(units)
            key = rate[t] - h_prefix
            units.append(cap[t])
            srcs.append(t)
            heapq.heappush(cheap, (key, k))
            heapq.heappush(rich, (-key, k))
            avail += cap[t]
        need = demand[t]
        if need > avail:
            break
        while need > 0:
            key, k = cheap[0]
            if units[k] == 0:
                heapq.heappop(cheap)
                continue
            take = min(units[k], need)
            units[k] -= take
            need -= take
            avail -= take
            prod_flow[srcs[k]] += take
            cost += take * (key + h_prefix)
        spent.append(cost)
        if t < n - 1:
            icap = inv_cap[t]
            while avail > icap:
                _, k = rich[0]
                if units[k] == 0:
                    heapq.heappop(rich)
                    continue
                drop = min(units[k], avail - icap)
                units[k] -= drop
                avail -= drop
            h_prefix += hold[t]
    stock = [(key + h_prefix, units[k]) for key, k in cheap if units[k]]
    return spent, prod_flow, stock


def _scaled_rates(prod_cost) -> tuple[int, list[int]]:
    """Integer rates: the costs times the lcm of their denominators."""
    scale = math.lcm(*(c.denominator for c in prod_cost))
    return scale, [c.numerator * (scale // c.denominator) for c in prod_cost]


def min_cost_flow(net: FlowNetwork) -> FlowResult:
    """Solve the relaxation network exactly (scaled to integers)."""
    scale, rate = _scaled_rates(net.prod_cost)
    hold = [h * scale for h in net.inv_cost]
    spent, prod_flow, _ = path_greedy(net.prod_cap, rate, hold, net.inv_cap, net.demand)
    if len(spent) < net.n:
        return FlowResult(INFEASIBLE, (), (), Fraction(0), 0)
    inv_flow = []
    carried = 0
    for t in range(net.n - 1):
        carried += prod_flow[t] - net.demand[t]
        inv_flow.append(carried)
    total = Fraction(spent[-1] if spent else 0, scale) + net.const
    return FlowResult(
        status=OPTIMAL,
        prod_flow=tuple(prod_flow),
        inv_flow=tuple(inv_flow),
        total_cost=total,
        integer_lower_bound=math.ceil(total),
    )


def window_flow_bounds(stripped: StrippedInstance, store: DomainStore, cs_mode: bool):
    """Flow bounds of the windows (u, v), one greedy pass per start u.

    The pass for start u runs on the network of window (u, T-1): demands
    before u are zero and setups before u are not amortized. The greedy
    settles each period from earlier ones only, so its running cost after
    period v is the optimum of window (u, v). Returns ``bounds(u)``, whose
    entry v >= u is that cost rounded up plus the setups sunk in u..v (inf
    once a demand cannot be met); entries before u are unused.
    """
    T = stripped.T
    net = build_network(stripped, store, FlowMode.CS_ONLY if cs_mode else FlowMode.FULL)
    scale, rate_in = _scaled_rates(net.prod_cost)
    rate_out = [0 if cs_mode else p * scale for p in stripped.p]
    hold = [h * scale for h in net.inv_cost]
    sunk = [stripped.s[t] if store.min(("Y", t)) == 1 else 0 for t in range(T)]

    def bounds(u: int) -> list[float]:
        rate = rate_out[:u] + rate_in[u:]
        demand = [0] * u + net.demand[u:]
        spent, _, _ = path_greedy(net.prod_cap, rate, hold, net.inv_cap, demand)
        out = [math.inf] * T
        paid = 0
        for v in range(u, len(spent)):
            paid += sunk[v]
            out[v] = float(-(-spent[v] // scale) + paid)
        return out

    return bounds


def pre_stock(stripped: StrippedInstance, store: DomainStore, cs_mode: bool):
    """Cheapest ways to enter a window with stock, one greedy pass per start.

    Returns ``row(u, q_max)``, whose entry q = 0..q_max is the cheapest way
    to hold q units entering period u (inf past what can be held), with the
    DP's state convention of paying h_{u-1} on them. Before its window a
    sub-problem has no demand and no setups, so the stock is what
    ``path_greedy`` holds after a zero-demand run over periods 0..u-1 of
    the network's capacities at unit costs p and h (0 in ``cs_mode``):
    eviction at each inventory arc keeps the cheapest units that fit, so
    its cheapest q units are the cheapest q that can reach u.
    """
    net = build_network(stripped, store, FlowMode.FULL)
    zeros = [0] * stripped.T
    rate, hold = (zeros, zeros) if cs_mode else (stripped.p, stripped.h)

    def row(u: int, q_max: int) -> np.ndarray:
        out = np.full(q_max + 1, math.inf)
        out[0] = 0.0
        _, _, stock = path_greedy(net.prod_cap[:u], rate, hold, net.inv_cap, zeros)
        costs, amts = [], []
        got = 0
        for cost, units in sorted(stock):
            if got == q_max:
                break
            take = min(units, q_max - got)
            costs.append(cost)
            amts.append(take)
            got += take
        # integer sums below 2**53, so the float row is exact
        acc = np.cumsum(np.repeat(np.array(costs, dtype=np.int64), amts))
        out[1 : got + 1] = acc + hold[u - 1] * np.arange(1, got + 1)
        return out

    return row
