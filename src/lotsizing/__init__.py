"""Exact solver library for the capacitated single-item lot-sizing problem."""

from .domains import DomainStore, Status
from .dp import (
    DpTable,
    filter_with_dp,
    window_tables,
)
from .flow import (
    FlowMode,
    min_cost_flow,
)
from .instance import (
    INSTANCE_CLASSES,
    GeneratorParams,
    Instance,
    StrippedInstance,
    generate,
    make_instance,
    read_instance,
    strip_lower_bounds,
    validate_and_normalize,
    write_instance,
)
from .propagator import (
    LotSizingConstraint,
    PropagateResult,
    bc_feasibility,
    complete_when_setups_fixed,
)
from .search import (
    SearchConfig,
    SearchStats,
    brute_force_oracle,
    enumerate_plans,
    solve,
    verify,
)
from .side_constraints import (
    DisjunctiveSpec,
    QRSpec,
    SequenceSystem,
    SideSpecs,
    apply_disjunctions,
    post_qr,
    qr_satisfied,
    sequence_propagate,
)
from .solution import Solution
from .wisp import (
    SubProblem,
    WispDecomposition,
    compute_decomposition,
    dpwisp,
    wisp_support_filter,
)

__all__ = [
    "DomainStore",
    "Status",
    "DpTable",
    "filter_with_dp",
    "window_tables",
    "FlowMode",
    "complete_when_setups_fixed",
    "min_cost_flow",
    "INSTANCE_CLASSES",
    "GeneratorParams",
    "Instance",
    "StrippedInstance",
    "generate",
    "make_instance",
    "read_instance",
    "strip_lower_bounds",
    "validate_and_normalize",
    "write_instance",
    "LotSizingConstraint",
    "PropagateResult",
    "bc_feasibility",
    "SearchConfig",
    "SearchStats",
    "brute_force_oracle",
    "enumerate_plans",
    "solve",
    "verify",
    "DisjunctiveSpec",
    "QRSpec",
    "SequenceSystem",
    "SideSpecs",
    "apply_disjunctions",
    "post_qr",
    "qr_satisfied",
    "sequence_propagate",
    "Solution",
    "SubProblem",
    "WispDecomposition",
    "compute_decomposition",
    "dpwisp",
    "wisp_support_filter",
]
