"""Minimum-cost network flow over the lot-sizing graph.

The linear relaxation of the problem is a min-cost flow on a path-shaped
network: a source feeds per-period production arcs, inventory arcs chain the
periods, and each period ships its demand to the sink. The arc data come
from the stripped instance, the one reading of the domains per pass: per
period the production capacity (0 when Y = 0), the setup charge still
payable, the setup sunk once Y = 1, and the inventory capacity. Production
arcs amortize the payable setup over the capacity (``p_t + s_t / cap_t``),
which is what makes the relaxation valid; the amortized setups are integer
rates over one common scale, the lcm of the cap_t / gcd(s_t, cap_t).
Restricting the cost vector gives dedicated lower bounds for the
production-cost, holding-cost and setup-cost variables (``relaxation``):
four cost vectors over the same arcs.

One integer greedy, ``path_greedy``, solves every instance of this network:
the whole-horizon relaxations (``min_cost_flow``), the flow bounds of all
windows (u, v) with one pass per start u (``window_flow_bounds``), the
pre-stock that seeds a window's DP table, the stock a zero-demand pass over
the periods before the window holds at its end (``pre_stock``, unit costs p
and h), and the exact completion once every setup is fixed
(``propagator.complete_when_setups_fixed``, unit costs p and h).
"""

from __future__ import annotations

import enum
import heapq
import math

import numpy as np

from .instance import StrippedInstance


class FlowMode(enum.Enum):
    FULL = "full"
    CP_ONLY = "cp_only"
    CH_ONLY = "ch_only"
    CS_ONLY = "cs_only"


def relaxation(stripped: StrippedInstance, mode: FlowMode) -> tuple[list[int], list[int], int]:
    """``(rate, hold, scale)``: the integer production rates and holding
    costs of the ``mode`` network and the scale they are over. CP_ONLY keeps
    the unit costs p and CH_ONLY the holding costs, over scale 1; CS_ONLY
    keeps the amortized setups, and FULL adds them to p and h."""
    zeros = [0] * stripped.T
    if mode is FlowMode.CP_ONLY:
        return list(stripped.p), zeros, 1
    if mode is FlowMode.CH_ONLY:
        return zeros, list(stripped.h), 1
    if mode is FlowMode.CS_ONLY:
        return stripped.amort, zeros, stripped.scale
    scale = stripped.scale
    return [p * scale + a for p, a in zip(stripped.p, stripped.amort)], [h * scale for h in stripped.h], scale


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


def min_cost_flow(stripped: StrippedInstance, mode: FlowMode) -> int | None:
    """The optimum of the ``mode`` relaxation rounded up, plus the sunk
    setups under FULL and CS_ONLY: a lower bound on the stripped cost that
    the mode restricts to. None when the demands cannot be met."""
    rate, hold, scale = relaxation(stripped, mode)
    spent, _, _ = path_greedy(stripped.x_cap, rate, hold, stripped.i_cap, stripped.d)
    if len(spent) < stripped.T:
        return None
    sunk = sum(stripped.sunk) if mode in (FlowMode.FULL, FlowMode.CS_ONLY) else 0
    return -(-spent[-1] // scale) + sunk


def window_flow_bounds(stripped: StrippedInstance, cs_mode: bool):
    """Flow bounds of the windows (u, v), one greedy pass per start u.

    The pass for start u runs on the network of window (u, T-1): demands
    before u are zero and setups before u are not amortized. The greedy
    settles each period from earlier ones only, so its running cost after
    period v is the optimum of window (u, v). Returns ``bounds(u)``, whose
    entry v >= u is that cost rounded up plus the setups sunk in u..v (inf
    once a demand cannot be met); entries before u are unused.
    """
    T = stripped.T
    rate_in, hold, scale = relaxation(stripped, FlowMode.CS_ONLY if cs_mode else FlowMode.FULL)
    rate_out = [0 if cs_mode else p * scale for p in stripped.p]

    def bounds(u: int) -> list[float]:
        rate = rate_out[:u] + rate_in[u:]
        demand = [0] * u + list(stripped.d[u:])
        spent, _, _ = path_greedy(stripped.x_cap, rate, hold, stripped.i_cap, demand)
        out = [math.inf] * T
        paid = 0
        for v in range(u, len(spent)):
            paid += stripped.sunk[v]
            out[v] = float(-(-spent[v] // scale) + paid)
        return out

    return bounds


def pre_stock(stripped: StrippedInstance, cs_mode: bool):
    """Cheapest ways to enter a window with stock, one greedy pass per start.

    Returns ``row(u, q_max)``, whose entry q = 0..q_max is the cheapest way
    to hold q units entering period u (inf past what can be held), with the
    DP's state convention of paying h_{u-1} on them. Before its window a
    sub-problem has no demand and no setups, so the stock is what
    ``path_greedy`` holds after a zero-demand run over periods 0..u-1 of
    the stripped capacities at unit costs p and h (0 in ``cs_mode``):
    eviction at each inventory arc keeps the cheapest units that fit, so
    its cheapest q units are the cheapest q that can reach u.
    """
    zeros = [0] * stripped.T
    rate, hold = (zeros, zeros) if cs_mode else (stripped.p, stripped.h)

    def row(u: int, q_max: int) -> np.ndarray:
        out = np.full(q_max + 1, math.inf)
        out[0] = 0.0
        _, _, stock = path_greedy(stripped.x_cap[:u], rate, hold, stripped.i_cap, zeros)
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
