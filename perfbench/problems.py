"""Benchmark instances: a registry class plus an instance seed gives one
normalized instance, its side constraints and the class's branching rule."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from lotsizing import (
    INSTANCE_CLASSES,
    DisjunctiveSpec,
    Instance,
    QRSpec,
    SideSpecs,
    generate,
    validate_and_normalize,
)


@dataclass(frozen=True)
class Problem:
    cls: str
    seed: int
    inst: Instance
    side: SideSpecs | None
    branching: str

    @property
    def key(self) -> str:
        return f"{self.cls}/{self.seed}"


def make_problem(cls: str, seed: int) -> Problem:
    """Same construction as ``lotsizing generate --cls``: the class's
    generator parameters with ``seed``, side specs uniform over the horizon,
    peak branching for peak classes."""
    template = INSTANCE_CLASSES[cls]
    params = dataclasses.replace(template.params, seed=seed)
    inst = validate_and_normalize(generate(params))
    disj = DisjunctiveSpec.uniform(params.T, template.disjunction) if template.disjunction else None
    qr = QRSpec(*template.qr) if template.qr else None
    side = SideSpecs(disjunction=disj, qr=qr) if disj or qr else None
    branching = "peak" if params.peak_periods else "lex"
    return Problem(cls=cls, seed=seed, inst=inst, side=side, branching=branching)
