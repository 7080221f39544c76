"""Outside-in layer tracing: wrappers around the names the package looks up
at call time, recording one span per call.

A span is (name, start, end, parent, instance, removed, extra). ``removed``
is the drop of the summed X/I/Y domain sizes across the call, measured only
for the filtering layers; the snapshot behind it is O(T) per call, which is
part of the measured tracing overhead. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import lotsizing.propagator as propagator
import lotsizing.search as search
import lotsizing.side_constraints as side_constraints
import lotsizing.wisp as wisp


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    instance: str
    removed: int | None = None
    extra: dict | None = None


def _domain_size(store, T: int) -> int:
    total = 0
    for t in range(T):
        for kind in ("X", "I", "Y"):
            for lo, hi in store.intervals((kind, t)):
                total += hi - lo + 1
    return total


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Installs the wrappers on ``install`` and restores the originals on
    ``uninstall``; ``instance`` names the solve that new spans belong to."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.instance = ""

    # -- span recording -------------------------------------------------------

    def span(self, name: str, fn, args=(), kwargs=None, store_T=None, extra=None):
        """Call ``fn`` inside a span. ``store_T(args, kwargs)`` returns the
        (store, T) whose domain drop is recorded; ``extra(result)`` returns
        call-specific counts."""
        kwargs = kwargs or {}
        idx = len(self.spans)
        sp = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.instance)
        self.spans.append(sp)
        self._stack.append(idx)
        before = None
        if store_T is not None:
            store, T = store_T(args, kwargs)
            before = (store, T, _domain_size(store, T))
        sp.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
        if before is not None:
            store, T, size = before
            # A failed store may leave domains half-updated; count what is gone.
            sp.removed = size - _domain_size(store, T)
        if extra is not None:
            sp.extra = extra(result)
        return result

    def _wrap(self, owner, attr: str, name: str, store_T=None, extra=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.span(name, original, args, kwargs, store_T, extra)

        setattr(owner, attr, wrapper)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        def bc_store(a, k):
            return _arg(a, k, 0, "store"), _arg(a, k, 1, "inst").T

        def filter_store(a, k):
            return _arg(a, k, 2, "store"), _arg(a, k, 3, "stripped").T

        def wisp_filter_store(a, k):
            return _arg(a, k, 2, "store"), _arg(a, k, 1, "stripped").T

        def tables_extra(tables):
            return {"states": sum(len(row) for table in tables for row in table.rows)}

        def complete_extra(sol):
            return {"hit": sol is not None}

        def decomp_extra(decomp):
            kinds = [s.bound_kind for s in decomp.subproblems]
            return {
                "exact": kinds.count(wisp.DP_EXACT),
                "flow": kinds.count(wisp.FLOW_RELAX),
                "support": len(decomp.support),
            }

        for module in (propagator, search):
            self._wrap(module, "bc_feasibility", "propagator.bc", store_T=bc_store)
            self._wrap(module, "complete_when_setups_fixed", "flow.complete", extra=complete_extra)
        self._wrap(propagator, "min_cost_flow", "flow.relax")
        for module in (propagator, wisp):
            self._wrap(module, "window_tables", "dp.tables", extra=tables_extra)
            self._wrap(module, "filter_with_dp", "dp.filter", store_T=filter_store)
        self._wrap(wisp, "compute_decomposition", "wisp.bounds", extra=decomp_extra)
        self._wrap(wisp, "wisp_support_filter", "wisp.filter", store_T=wisp_filter_store)
        self._wrap(
            propagator.LotSizingConstraint,
            "propagate",
            "propagator.propagate",
            store_T=lambda a, k: (a[0].store, a[0].instance.T),
        )
        self._wrap(
            side_constraints.SequenceSystem,
            "propagate",
            "side_constraints.seq",
            store_T=lambda a, k: (_arg(a, k, 1, "store"), a[0].T),
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for idx, sp in enumerate(self.spans):
                rec = {
                    "id": idx,
                    "name": sp.name,
                    "start": sp.start,
                    "end": sp.end,
                    "parent": sp.parent,
                    "instance": sp.instance,
                }
                if sp.removed is not None:
                    rec["removed"] = sp.removed
                if sp.extra:
                    rec.update(sp.extra)
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the time covered by direct children (spans nest and
    never overlap: the run is single-threaded)."""
    own = [sp.end - sp.start for sp in spans]
    for sp in spans:
        if sp.parent is not None:
            own[sp.parent] -= sp.end - sp.start
    return own


def layer_metrics(spans: list[Span], search_stats: list) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    dur: dict[str, float] = {}
    selfs: dict[str, float] = {}
    removed: dict[str, int] = {}
    useful: dict[str, int] = {}
    extra: dict[str, float] = {}
    bc_in_propagate = 0
    for sp, self_s in zip(spans, own):
        n = sp.name
        calls[n] = calls.get(n, 0) + 1
        dur[n] = dur.get(n, 0.0) + (sp.end - sp.start)
        selfs[n] = selfs.get(n, 0.0) + self_s
        if sp.removed is not None:
            removed[n] = removed.get(n, 0) + sp.removed
            useful[n] = useful.get(n, 0) + (sp.removed > 0)
        for key, value in (sp.extra or {}).items():
            extra[f"{n}.{key}"] = extra.get(f"{n}.{key}", 0) + value
        if n == "propagator.bc" and sp.parent is not None and spans[sp.parent].name == "propagator.propagate":
            bc_in_propagate += 1

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    prop_calls = calls.get("propagator.propagate", 0)
    return {
        "search.nodes": sum(s.nodes for s in search_stats),
        "search.backtracks": sum(s.backtracks for s in search_stats),
        "search.prunes": sum(s.prunes for s in search_stats),
        "search.self_s": selfs.get("search.solve", 0.0),
        "propagator.propagate.calls": prop_calls,
        "propagator.propagate.self_s": selfs.get("propagator.propagate", 0.0),
        "propagator.bc.calls": calls.get("propagator.bc", 0),
        "propagator.bc.s": dur.get("propagator.bc", 0.0),
        "propagator.bc.removed": removed.get("propagator.bc", 0),
        "propagator.passes_per_propagate": ratio(bc_in_propagate, prop_calls),
        "flow.relax.calls": calls.get("flow.relax", 0),
        "flow.relax.s": dur.get("flow.relax", 0.0),
        "flow.complete.calls": calls.get("flow.complete", 0),
        "flow.complete.s": dur.get("flow.complete", 0.0),
        "flow.complete.hit_ratio": ratio(extra.get("flow.complete.hit", 0), calls.get("flow.complete", 0)),
        "dp.tables.calls": calls.get("dp.tables", 0),
        "dp.tables.s": dur.get("dp.tables", 0.0),
        "dp.tables.states": extra.get("dp.tables.states", 0),
        "dp.filter.calls": calls.get("dp.filter", 0),
        "dp.filter.s": dur.get("dp.filter", 0.0),
        "dp.filter.removed": removed.get("dp.filter", 0),
        "dp.filter.useful_ratio": ratio(useful.get("dp.filter", 0), calls.get("dp.filter", 0)),
        "wisp.bounds.calls": calls.get("wisp.bounds", 0),
        "wisp.bounds.s": dur.get("wisp.bounds", 0.0),
        "wisp.windows_exact": extra.get("wisp.bounds.exact", 0),
        "wisp.windows_flow": extra.get("wisp.bounds.flow", 0),
        "wisp.filter.calls": calls.get("wisp.filter", 0),
        "wisp.filter.s": dur.get("wisp.filter", 0.0),
        "wisp.filter.removed": removed.get("wisp.filter", 0),
        "wisp.support_windows": extra.get("wisp.bounds.support", 0),
        "side_constraints.seq.calls": calls.get("side_constraints.seq", 0),
        "side_constraints.seq.s": dur.get("side_constraints.seq", 0.0),
        "side_constraints.seq.removed": removed.get("side_constraints.seq", 0),
    }


def layer_self_shares(spans: list[Span]) -> dict[str, float]:
    """Share of traced solve time spent in each layer's own code."""
    own = self_times(spans)
    total = sum(sp.end - sp.start for sp in spans if sp.parent is None)
    shares: dict[str, float] = {}
    for sp, self_s in zip(spans, own):
        layer = sp.name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + self_s
    return {k: v / total for k, v in sorted(shares.items())} if total else {}

