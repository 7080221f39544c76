"""Micro-benchmarks of the DP and flow kernels (pytest-benchmark).

Kept out of the test suite (``testpaths = ["tests"]``). Run them with

    PYTHONPATH=src python -m pytest benchmarks/ -q

Inputs are built from the class registry, so every run times the same work.
"""

import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from lotsizing import (
    INSTANCE_CLASSES,
    DisjunctiveSpec,
    DomainStore,
    LotSizingConstraint,
    PropagateResult,
    SideSpecs,
    Status,
    apply_disjunctions,
    bc_feasibility,
    filter_with_dp,
    generate,
    post_qr,
    strip_lower_bounds,
    validate_and_normalize,
    verify,
    window_tables,
)
from lotsizing.dp import (
    _backward_rows,
    _backward_step,
    _build_forward,
    _forward_step,
    _window_min,
    make_cost_view,
)
from lotsizing.flow import pre_stock, window_flow_bounds
from lotsizing.wisp import compute_decomposition

REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


def _fresh(cls: str, seed: int = 1):
    """A class instance and its fresh store, with the class's production
    disjunctions posted."""
    template = INSTANCE_CLASSES[cls]
    params = dataclasses.replace(template.params, seed=seed)
    inst = validate_and_normalize(generate(params))
    store = DomainStore.for_instance(inst)
    if template.disjunction:
        apply_disjunctions(store, DisjunctiveSpec.uniform(params.T, template.disjunction))
    return inst, store


def _root(cls: str, seed: int = 1):
    """Root of a class instance after bound consistency."""
    inst, store = _fresh(cls, seed)
    bc_feasibility(store, inst)
    return inst, store, strip_lower_bounds(inst, store)


def _row(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, 10**6, size=n).astype(float)
    vals[rng.random(n) < 0.1] = np.inf
    return vals


@pytest.mark.parametrize("width", ["narrow", "wide"])
@pytest.mark.parametrize("size", [30, 300, 3000, 8750])
def test_window_min(benchmark, size, width):
    """One sliding minimum over a row of ``size`` states, as a DP step asks:
    window [d - x_hi, d - 1] with a demand of a third of the row; narrow
    windows span an eighth of the row, wide ones four rows."""
    vals = _row(size, size)
    d = size // 3
    x_hi = size // 8 if width == "narrow" else 4 * size
    out = benchmark(_window_min, vals, size, d - x_hi, d - 1)
    assert len(out) == size


@pytest.mark.parametrize("cls", ["C1LS", "C1Peaks", "C1Disj"])
def test_forward_step(benchmark, cls):
    """The widest step of the whole-horizon forward table; C1Disj steps over
    three production runs, the others over one."""
    _, _, stripped = _root(cls)
    view = make_cost_view(stripped)
    fwd = _build_forward(view, np.zeros(1))
    t = max(range(view.u, view.v + 1), key=lambda b: len(fwd.row(b)) + len(fwd.row(b + 1)))
    prev = fwd.row(t)
    row = benchmark(_forward_step, view, t, prev)
    assert np.array_equal(row, fwd.row(t + 1))


@pytest.mark.parametrize("cls", ["C1LS", "C3LS", "C1Disj", "C3QR", "C1Peaks"])
def test_build_forward(benchmark, cls):
    """The whole-horizon C table of a root, every row: what a closing node
    builds before it traces its plan."""
    _, _, stripped = _root(cls)
    view = make_cost_view(stripped)
    fwd = benchmark(_build_forward, view, np.zeros(1))
    assert len(fwd.rows) == stripped.T + 1


@pytest.mark.parametrize("cls", ["C1LS", "C1Disj"])
def test_backward_step(benchmark, cls):
    """The widest step of the whole-horizon backward table."""
    _, _, stripped = _root(cls)
    view = make_cost_view(stripped)
    rows = _backward_rows(view)
    t = max(range(view.u, view.v + 1), key=lambda b: len(rows[b]) + len(rows[b + 1]))
    row = benchmark(_backward_step, view, t, rows[t + 1])
    assert np.array_equal(row, rows[t])


@pytest.mark.parametrize("cls", ["C3LS", "C1Peaks"])
def test_greedy_prestock(benchmark, cls):
    """Pre-stock row entering the middle period, sized by its state cap:
    one zero-demand ``path_greedy`` run over the periods before it, on the
    strip's arcs."""
    _, _, stripped = _root(cls)
    u = stripped.T // 2
    view = make_cost_view(stripped, (u, stripped.T - 2))
    init = benchmark(pre_stock(stripped, cs_mode=False), u, view.cap(u))
    assert len(init) == view.cap(u) + 1


@pytest.mark.parametrize("cls", ["C3LS", "C1Peaks"])
def test_path_greedy(benchmark, cls):
    """One window-flow pass (``path_greedy`` on the network of start 1)."""
    _, _, stripped = _root(cls)
    bounds = window_flow_bounds(stripped, cs_mode=False)
    out = benchmark(bounds, 1)
    assert len(out) == stripped.T


@pytest.mark.parametrize("cls", ["C1LS", "C1Peaks"])
def test_compute_decomposition(benchmark, cls):
    """One root decomposition: every window bound (exact DP or flow pass)
    and the scheduling recurrence, what each WISP pass starts with."""
    _, _, stripped = _root(cls)
    decomp = benchmark(compute_decomposition, stripped)
    assert len(decomp.subproblems) == stripped.T * (stripped.T - 1) // 2


@pytest.mark.parametrize(
    "cls, bound",
    [("C1Disj", "given"), ("C1Disj", "loose"), ("C3QR", "given"), ("C3QR", "loose"), ("C1LS", "near"),
     ("C1Peaks", "open")],
)
def test_filter_with_dp(benchmark, cls, bound):
    """Whole-horizon filtering at the root, against the stored HiGHS optimum
    (the paper's given bound), against the trivial cost cap (no bound),
    against the optimum plus 0.5 % (near) or plus 2 % (open). On C1LS the
    near bound sends 35 of the 40 periods, each over 2^14 survivor pairs, to
    ``dp._support``, which reads their rows coarse to fine, each read
    against all columns or along the diagonals of the undecided values, and
    stops once every value is supported. On the C1Peaks table (2.9M states)
    the open bound leaves 33 periods with more than ``dp._PAIR_CAP`` pairs,
    up to 5.8e9, whose X and Y domains are kept unread."""
    _, store, stripped = _root(cls)
    fwd, bwd = window_tables(stripped, None, cs_mode=False)
    opt = json.loads(REFERENCES.read_text())["optima"][cls]["1"]
    if bound == "given":
        ub = opt - stripped.c_min
    elif bound == "near":
        ub = opt + opt // 200 - stripped.c_min
    elif bound == "open":
        ub = opt + opt // 50 - stripped.c_min
    else:
        ub = store.max(("C", 0)) - stripped.c_min
    st = benchmark.pedantic(
        filter_with_dp,
        setup=lambda: ((fwd, bwd, copy.deepcopy(store), stripped, ub), {}),
        rounds=20,
    )
    assert st is not Status.FAILED


@pytest.mark.parametrize("cls", ["C1LS", "C3QR"])
def test_trace_plan(benchmark, cls):
    """Argmin-plan extraction from the root's whole-horizon cost table, the
    plan the search is offered as its incumbent."""
    inst, store, stripped = _root(cls)
    fwd, _ = window_tables(stripped, None, cs_mode=False)
    ls = LotSizingConstraint(inst, store)
    plan = benchmark(ls._trace_plan, fwd, stripped)
    assert plan.c == int(fwd.optimum()) + fwd.sunk + stripped.c_min


@pytest.mark.parametrize("cls", ["C3QR", "C1Disj"])
def test_open_node_propagate(benchmark, cls):
    """One root ``propagate()`` against the stored HiGHS optimum plus 2 %,
    with no plan offers, so the node stays open: BC, the C table, the flow
    relaxations, the C filter and the Cs table all run."""
    inst, store = _fresh(cls)
    opt = json.loads(REFERENCES.read_text())["optima"][cls]["1"]
    store.set_max(("C", 0), opt + opt // 50)
    res, _ = benchmark.pedantic(
        LotSizingConstraint.propagate,
        setup=lambda: ((LotSizingConstraint(inst, copy.deepcopy(store)),), {}),
        rounds=20,
    )
    assert res is PropagateResult.FIXPOINT


@pytest.mark.parametrize("cls", ["C1LS", "C1Disj"])
def test_closing_root_propagate(benchmark, cls):
    """One root ``propagate()`` against the stored HiGHS optimum, with an
    offer gated by ``verify``, as a search given the optimum makes it: BC,
    the C table and its plan, which closes the node."""
    inst, store = _fresh(cls)
    template = INSTANCE_CLASSES[cls]
    side = SideSpecs(disjunction=DisjunctiveSpec.uniform(inst.T, template.disjunction) if template.disjunction else None)
    store.set_max(("C", 0), json.loads(REFERENCES.read_text())["optima"][cls]["1"])
    offer = lambda plan: verify(inst, side, plan)[0]
    res, _ = benchmark.pedantic(
        LotSizingConstraint.propagate,
        setup=lambda: ((LotSizingConstraint(inst, copy.deepcopy(store), offer=offer),), {}),
        rounds=20,
    )
    assert res is PropagateResult.CLOSED


@pytest.mark.parametrize("cls", ["C3QR", "C1Peaks"])
def test_strip(benchmark, cls):
    """The snapshot of a root's domains that every stage of a pass reads:
    the stripped instance with its arc data, Y bounds and X/I intervals."""
    inst, store, stripped = _root(cls)
    assert benchmark(strip_lower_bounds, inst, store) == stripped


@pytest.mark.parametrize("cls", ["C3LS", "C1Peaks"])
def test_bc_feasibility(benchmark, cls):
    """Bound consistency on a fresh store: the array sweep and its write-back."""
    inst, store = _fresh(cls)
    st, _ = benchmark.pedantic(
        bc_feasibility, setup=lambda: ((copy.deepcopy(store), inst), {}), rounds=50
    )
    assert st is Status.CHANGED


@pytest.mark.parametrize("cls", ["C3LS", "C1Peaks"])
def test_flow_bounds(benchmark, cls):
    """The four flow relaxations of a root: four greedy passes over the
    strip's arcs."""
    inst, store, stripped = _root(cls)
    ls = LotSizingConstraint(inst, store)
    st = benchmark(ls._flow_bounds, stripped)
    assert st is not Status.FAILED


def test_sequence_propagate(benchmark):
    """Q/R sequence propagation on the C3QR root (after bound consistency),
    from the freshly installed count chain to its fixpoint."""
    inst, store, _ = _root("C3QR")
    system = post_qr(inst.T, *INSTANCE_CLASSES["C3QR"].qr)
    system.install(store)
    st = benchmark.pedantic(system.propagate, setup=lambda: ((copy.deepcopy(store),), {}), rounds=50)
    assert st is Status.CHANGED
