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
    Status,
    apply_disjunctions,
    bc_feasibility,
    filter_with_dp,
    generate,
    validate_and_normalize,
    window_tables,
)
from lotsizing.dp import _build_forward, _forward_step, _window_min, greedy_prestock, make_cost_view
from lotsizing.flow import window_flow_bounds
from lotsizing.propagator import _strip

REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


def _root(cls: str, seed: int = 1):
    """Root of a class instance after bound consistency, with the class's
    production disjunctions posted."""
    template = INSTANCE_CLASSES[cls]
    params = dataclasses.replace(template.params, seed=seed)
    inst = validate_and_normalize(generate(params))
    store = DomainStore.for_instance(inst)
    if template.disjunction:
        apply_disjunctions(store, DisjunctiveSpec.uniform(params.T, template.disjunction))
    bc_feasibility(store, inst)
    return inst, store, _strip(inst, store)


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


@pytest.mark.parametrize("cls", ["C1LS", "C1Peaks"])
def test_forward_step(benchmark, cls):
    """The widest step of the whole-horizon forward table."""
    _, store, stripped = _root(cls)
    view = make_cost_view(stripped, store, None)
    fwd = _build_forward(view, stripped, store, None, None)
    t = max(range(view.u, view.v + 1), key=lambda b: len(fwd.row(b)) + len(fwd.row(b + 1)))
    prev = fwd.row(t)
    row = benchmark(_forward_step, view, t, prev)
    assert np.array_equal(row, fwd.row(t + 1))


@pytest.mark.parametrize("cls", ["C3LS", "C1Peaks"])
def test_greedy_prestock(benchmark, cls):
    """Pre-stock row entering the middle period, sized by its state cap."""
    _, store, stripped = _root(cls)
    u = stripped.T // 2
    view = make_cost_view(stripped, store, (u, stripped.T - 2))
    init = benchmark(greedy_prestock, stripped, store, u, view.cap(u))
    assert len(init) == view.cap(u) + 1


@pytest.mark.parametrize("cls", ["C3LS", "C1Peaks"])
def test_path_greedy(benchmark, cls):
    """One window-flow pass (``path_greedy`` on the network of start 1)."""
    _, store, stripped = _root(cls)
    bounds = window_flow_bounds(stripped, store, cs_mode=False)
    out = benchmark(bounds, 1)
    assert len(out) == stripped.T


@pytest.mark.parametrize("bound", ["given", "loose"])
@pytest.mark.parametrize("cls", ["C1Disj", "C3QR"])
def test_filter_with_dp(benchmark, cls, bound):
    """Whole-horizon filtering at the root, against the stored HiGHS optimum
    (the paper's given bound) or against the trivial cost cap (no bound)."""
    _, store, stripped = _root(cls)
    fwd, bwd = window_tables(stripped, store, None, cs_mode=False)
    if bound == "given":
        ub = json.loads(REFERENCES.read_text())["optima"][cls]["1"] - stripped.c_min
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
    fwd, _ = window_tables(stripped, store, None, cs_mode=False)
    ls = LotSizingConstraint(inst, store)
    plan = benchmark(ls._trace_plan, fwd, stripped)
    assert plan.c == int(fwd.optimum()) + fwd.sunk + stripped.c_min
