"""Workload definitions and the seeded choice of instances for one run."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from lotsizing.rng import SplitMix64

from problems import Problem, make_problem

REFERENCE_FILE = Path(__file__).resolve().parent / "references.json"

SIDE_CLASSES = tuple(f"C{i}Disj" for i in range(1, 6)) + tuple(f"C{i}QR" for i in range(1, 6))
LSPEAKS_CLASSES = tuple(f"C{i}LS" for i in range(1, 6)) + tuple(f"C{i}Peaks" for i in range(1, 6))

@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple[str, ...]
    given_ub: bool  # hand the search the reference optimum (paper protocol)
    per_class: int  # instances per class; the class's pool holds one more
    node_cap: int  # SearchConfig.node_limit; the only limit a solve gets


WORKLOADS = {
    w.name: w
    for w in (
        Workload("side-discover", SIDE_CLASSES, given_ub=False, per_class=2, node_cap=2),
        Workload("side-given", SIDE_CLASSES, given_ub=True, per_class=5, node_cap=40),
        Workload("lspeaks-given", LSPEAKS_CLASSES, given_ub=True, per_class=3, node_cap=2),
    )
}

# Feasible instance seeds with a stored reference optimum, per class: the
# largest pool. Every instance a run solves has been checked by HiGHS
# beforehand, so no run pays for a reference solve.
REFERENCED_SEEDS = max(w.per_class for w in WORKLOADS.values()) + 1


def load_references() -> dict[str, dict[int, int | None]]:
    """class -> instance seed -> optimum (None = infeasible)."""
    raw = json.loads(REFERENCE_FILE.read_text(encoding="ascii"))
    return {cls: {int(s): v for s, v in seeds.items()} for cls, seeds in raw["optima"].items()}


def pool(refs: dict[str, dict[int, int | None]], cls: str, size: int) -> list[int]:
    """The first ``size`` instance seeds of ``cls`` with a feasible optimum."""
    feasible = sorted(s for s, v in refs[cls].items() if v is not None)
    if len(feasible) < size:
        raise ValueError(f"{cls}: {len(feasible)} referenced feasible seeds, need {size}")
    return feasible[:size]


def choose_problems(workload: Workload, seed: int, refs) -> list[Problem]:
    """The run's instances: per class, every seed of a pool of
    ``per_class + 1`` but one, the one left out drawn by a SplitMix64 stream
    seeded with the run seed.

    Instance cost varies by 10-35 % between seeds of one class. Leaving one
    out of a pool of n + 1 divides the run-to-run spread of a class's summed
    cost by n, where a free draw of n seeds would divide it by about sqrt(n).
    """
    rng = SplitMix64(seed)
    problems = []
    for cls in workload.classes:
        seeds = pool(refs, cls, workload.per_class + 1)
        del seeds[rng.randint(0, workload.per_class)]
        problems += [make_problem(cls, s) for s in seeds]
    return problems
