"""Backtrackable domain store for the solver's variables.

Every variable domain is a sorted tuple of disjoint, non-adjacent closed
integer intervals. Production domains need this generality (side constraints
punch wide holes); inventory, setup and cost domains are single intervals in
normal operation but share the representation.

State restoration is trail-based: ``push_level`` opens a frame and the first
change to each variable inside the frame records its previous intervals;
``pop_level`` restores them exactly.

Two counters watch the store. ``mod_count`` goes up on every change and is
never restored; a propagator compares it across one of its own passes to
detect a fixpoint. ``plan_epoch`` goes up on every change of a plan variable
(X, I or Y) and on every ``pop_level`` that restores anything, so two equal
readings mean the plan variables hold the same domains: a stage that reads
only those can skip a rerun across propagation calls and backtracks.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator

import numpy as np

Ivs = tuple[tuple[int, int], ...]
Var = tuple[str, int]

PLAN_VARS = frozenset(("X", "I", "Y"))


class Status(enum.Enum):
    UNCHANGED = 0
    CHANGED = 1
    FAILED = 2


def merge(a: Status, b: Status) -> Status:
    if a is Status.FAILED or b is Status.FAILED:
        return Status.FAILED
    if a is Status.CHANGED or b is Status.CHANGED:
        return Status.CHANGED
    return Status.UNCHANGED


# ---------------------------------------------------------------------------
# Interval-set primitives (pure functions over tuples)
# ---------------------------------------------------------------------------


def iv_normalize(pairs: Iterable[tuple[int, int]]) -> Ivs:
    items = sorted((int(lo), int(hi)) for lo, hi in pairs if lo <= hi)
    out: list[tuple[int, int]] = []
    for lo, hi in items:
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return tuple(out)


def iv_contains(ivs: Ivs, v: int) -> bool:
    for lo, hi in ivs:
        if lo <= v <= hi:
            return True
        if lo > v:
            return False
    return False


def iv_values(ivs: Ivs) -> Iterator[int]:
    for lo, hi in ivs:
        yield from range(lo, hi + 1)


def iv_set_min(ivs: Ivs, v: int) -> Ivs:
    out = []
    for lo, hi in ivs:
        if hi < v:
            continue
        out.append((max(lo, v), hi))
    return tuple(out)


def iv_set_max(ivs: Ivs, v: int) -> Ivs:
    out = []
    for lo, hi in ivs:
        if lo > v:
            break
        out.append((lo, min(hi, v)))
    return tuple(out)


def iv_remove_value(ivs: Ivs, v: int) -> Ivs:
    out = []
    for lo, hi in ivs:
        if lo <= v <= hi:
            if lo <= v - 1:
                out.append((lo, v - 1))
            if v + 1 <= hi:
                out.append((v + 1, hi))
        else:
            out.append((lo, hi))
    return tuple(out)


def iv_intersect(a: Ivs, b: Ivs) -> Ivs:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return tuple(out)


def iv_shift(ivs: Ivs, delta: int) -> Ivs:
    return tuple((lo + delta, hi + delta) for lo, hi in ivs)


def iv_mask(ivs: Ivs, lo: int, hi: int) -> np.ndarray:
    """Boolean membership array for values lo..hi inclusive."""
    mask = np.zeros(hi - lo + 1, dtype=bool)
    for a, b in ivs:
        a2, b2 = max(a, lo), min(b, hi)
        if a2 <= b2:
            mask[a2 - lo : b2 - lo + 1] = True
    return mask


def iv_from_mask(mask: np.ndarray, offset: int = 0) -> Ivs:
    """Maximal runs of True in ``mask`` as intervals, index 0 at ``offset``."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], np.asarray(mask, dtype=np.int8), [0]))))
    return tuple(zip((edges[::2] + offset).tolist(), (edges[1::2] - 1 + offset).tolist()))


# ---------------------------------------------------------------------------
# Bound sweeps on plain lists
# ---------------------------------------------------------------------------


class Wipeout(Exception):
    """A bound request that empties a domain: (key, tighten kind, value)."""


def raise_lo(lo, hi, holes, t, v, name) -> bool:
    """lo[t] := v when v is tighter, moved up to the next value of a domain
    with holes as ``DomainStore.set_min`` does; True when lo[t] moved."""
    if v <= lo[t]:
        return False
    w = v
    if holes[t] is not None:
        w = next((max(a, v) for a, b in holes[t] if b >= v), hi[t] + 1)
    if w > hi[t]:
        raise Wipeout(name, t, "set_min", v)
    lo[t] = w
    return True


def lower_hi(lo, hi, holes, t, v, name) -> bool:
    """hi[t] := v when v is tighter, moved down like ``DomainStore.set_max``."""
    if v >= hi[t]:
        return False
    w = v
    if holes[t] is not None:
        w = next((min(b, v) for a, b in reversed(holes[t]) if a <= v), lo[t] - 1)
    if w < lo[t]:
        raise Wipeout(name, t, "set_max", v)
    hi[t] = w
    return True


def read_bounds(store: "DomainStore", name: str, n: int) -> tuple[list[int], list[int], list[Ivs | None]]:
    """Plain lists (lo, hi, holes) for the variables (name, 0..n-1); holes[t]
    is the domain's intervals when it has holes, else None."""
    doms = [store.intervals((name, t)) for t in range(n)]
    lo = [ivs[0][0] for ivs in doms]
    hi = [ivs[-1][1] for ivs in doms]
    return lo, hi, [ivs if len(ivs) > 1 else None for ivs in doms]


def write_back(store: "DomainStore", bounds, start, wipeout) -> Status:
    """Write the bounds a plain-list sweep moved back with ``set_min`` and
    ``set_max``. ``bounds`` holds (name, lo, hi) per variable family and
    ``start`` their (lo, hi) before the sweep. A ``Wipeout``'s arguments in
    ``wipeout`` are then replayed on the store, which leaves it failed where
    the same requests made on the store would have: FAILED. Otherwise
    CHANGED when some bound moved."""
    status = Status.UNCHANGED
    for (name, lo, hi), (lo0, hi0) in zip(bounds, start):
        for t in range(len(lo)):
            if lo[t] != lo0[t]:
                store.set_min((name, t), lo[t])
                status = Status.CHANGED
            if hi[t] != hi0[t]:
                store.set_max((name, t), hi[t])
                status = Status.CHANGED
    if wipeout is not None:
        name, t, kind, value = wipeout
        store.tighten((name, t), kind, value)
        return Status.FAILED
    return status


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


class DomainStore:
    """Finite-domain variables with a trail of reversible updates."""

    def __init__(self) -> None:
        self._dom: dict[Var, Ivs] = {}
        self._frames: list[dict[Var, Ivs]] = []
        self._failed_at_push: list[bool] = []
        self.failed = False
        self.mod_count = 0
        self.plan_epoch = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def for_instance(cls, inst, cost_caps: tuple[int, int, int, int] | None = None) -> "DomainStore":
        """Post the variables of one lot-sizing constraint.

        X_t gets [alpha_lo, alpha_hi], I_t gets [beta_lo, beta_hi] except the
        final inventory which is pinned to zero (instances are normalized so
        that this loses nothing), Y_t gets {0, 1}, and the four cost variables
        get [0, cap] with caps defaulting to the instance-wide worst case.
        """
        store = cls()
        if cost_caps is None:
            cost_caps = inst.max_cost_bounds()
        for t in range(inst.T):
            store.add_var(("X", t), inst.alpha_lo[t], inst.alpha_hi[t])
            if t == inst.T - 1:
                # Normalized instances end with zero stock; a positive
                # final lower bound means the instance is infeasible.
                store.add_var(("I", t), 0, 0)
                if inst.beta_lo[t] > 0:
                    store.failed = True
            else:
                store.add_var(("I", t), inst.beta_lo[t], inst.beta_hi[t])
            store.add_var(("Y", t), 0, 1)
        for name, cap in zip(("Cp", "Ch", "Cs", "C"), cost_caps):
            store.add_var((name, 0), 0, cap)
        return store

    def add_var(self, key: Var, lo: int, hi: int) -> None:
        if lo > hi:
            raise ValueError(f"empty initial domain for {key}: [{lo}, {hi}]")
        if key in self._dom:
            raise ValueError(f"variable {key} already exists")
        self._dom[key] = ((lo, hi),)

    # -- queries ------------------------------------------------------------

    def intervals(self, key: Var) -> Ivs:
        return self._dom[key]

    def min(self, key: Var) -> int:
        return self._dom[key][0][0]

    def max(self, key: Var) -> int:
        return self._dom[key][-1][1]

    def is_fixed(self, key: Var) -> bool:
        d = self._dom[key]
        return len(d) == 1 and d[0][0] == d[0][1]

    def value(self, key: Var) -> int:
        d = self._dom[key]
        if len(d) != 1 or d[0][0] != d[0][1]:
            raise ValueError(f"{key} is not fixed: {d}")
        return d[0][0]

    def contains(self, key: Var, v: int) -> bool:
        return iv_contains(self._dom[key], v)

    def has_var(self, key: Var) -> bool:
        return key in self._dom

    def snapshot(self) -> dict[Var, Ivs]:
        return dict(self._dom)

    # -- mutation -----------------------------------------------------------

    def _record(self, key: Var) -> None:
        if self._frames:
            frame = self._frames[-1]
            if key not in frame:
                frame[key] = self._dom[key]

    def set_intervals(self, key: Var, new: Ivs) -> Status:
        if self.failed:
            return Status.FAILED
        old = self._dom[key]
        if new == old:
            return Status.UNCHANGED
        if not new:
            self.failed = True
            return Status.FAILED
        self._record(key)
        self._dom[key] = new
        self.mod_count += 1
        if key[0] in PLAN_VARS:
            self.plan_epoch += 1
        return Status.CHANGED

    def tighten(self, key: Var, kind: str, value: int) -> Status:
        if self.failed:
            return Status.FAILED
        old = self._dom[key]
        if kind == "set_min":
            if value <= old[0][0]:
                return Status.UNCHANGED
            new = iv_set_min(old, value)
        elif kind == "set_max":
            if value >= old[-1][1]:
                return Status.UNCHANGED
            new = iv_set_max(old, value)
        elif kind == "remove_value":
            new = iv_remove_value(old, value)
        elif kind == "assign":
            new = ((value, value),) if iv_contains(old, value) else ()
        else:
            raise ValueError(f"unknown tighten kind {kind!r}")
        return self.set_intervals(key, new)

    def set_min(self, key: Var, v: int) -> Status:
        return self.tighten(key, "set_min", v)

    def set_max(self, key: Var, v: int) -> Status:
        return self.tighten(key, "set_max", v)

    def assign(self, key: Var, v: int) -> Status:
        return self.tighten(key, "assign", v)

    def remove_value(self, key: Var, v: int) -> Status:
        return self.tighten(key, "remove_value", v)

    # -- trail --------------------------------------------------------------

    @property
    def level(self) -> int:
        return len(self._frames)

    def push_level(self) -> None:
        self._frames.append({})
        self._failed_at_push.append(self.failed)

    def pop_level(self) -> None:
        if not self._frames:
            raise RuntimeError("pop_level at level 0")
        frame = self._frames.pop()
        if frame:
            self.plan_epoch += 1
        for key, old in frame.items():
            self._dom[key] = old
        self.failed = self._failed_at_push.pop()
