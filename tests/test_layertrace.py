"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/layertrace.Tracer`` looks the wrapped functions up by name on
the solver modules, so moving or renaming one breaks ``run.py --trace 1``;
this solve under the tracer makes that show up here.
"""

import importlib.util
import sys
from pathlib import Path

import lotsizing.propagator as propagator
import lotsizing.search as search
import lotsizing.side_constraints as side_constraints
import lotsizing.wisp as wisp
from lotsizing import SearchConfig, make_instance, solve, validate_and_normalize

# Every solver attribute the tracer wraps (and must put back) ...
TRACED = (
    (propagator, "bc_feasibility"),
    (search, "bc_feasibility"),
    (propagator, "complete_when_setups_fixed"),
    (search, "complete_when_setups_fixed"),
    (propagator, "min_cost_flow"),
    (propagator, "window_tables"),
    (wisp, "window_tables"),
    (propagator, "filter_with_dp"),
    (wisp, "filter_with_dp"),
    (wisp, "compute_decomposition"),
    (wisp, "wisp_support_filter"),
    (propagator.LotSizingConstraint, "propagate"),
    (side_constraints.SequenceSystem, "propagate"),
)
# ... and the constants it reads.
READ = ((wisp, "DP_EXACT"), (wisp, "FLOW_RELAX"))


def _layertrace():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module


class TestLayerTrace:
    def test_tracer_wraps_one_tiny_solve(self):
        inst = validate_and_normalize(
            make_instance(
                d=[3, 0, 4, 2], p=[1, 2, 1, 2], h=[1, 1, 1, 1], s=[6, 5, 7, 4],
                alpha_hi=[6, 6, 6, 6], beta_hi=[6, 6, 6, 6],
            )
        )
        for owner, name in READ:
            assert hasattr(owner, name), name
        originals = [getattr(module, name) for module, name in TRACED]
        tracer = _layertrace().Tracer()
        tracer.install()
        try:
            sol, stats = solve(inst, None, SearchConfig(filter_mode="wisp"))
        finally:
            tracer.uninstall()
        assert stats.status == "OPT" and sol is not None
        assert [getattr(module, name) for module, name in TRACED] == originals
        names = {sp.name for sp in tracer.spans}
        for layer in ("propagator.bc", "flow.relax", "flow.complete", "wisp.bounds", "propagator.propagate"):
            assert layer in names
