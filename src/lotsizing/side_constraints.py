"""Side constraints: disjunctive production levels and Q/R production gaps.

Disjunctive specs restrict each production domain to {0} union a few closed
intervals (leveled production). Q/R constraints demand at least Q and at most
R periods between consecutive production periods; they are encoded as two
sliding-window cardinality (Sequence) constraints over the setup variables
and propagated through prefix-count variables N_b = Y_0 + ... + Y_{b-1},
with the channeling N_{b+1} = N_b + Y_b and window rules as difference
bounds on the N's. The rules sweep plain lists of the N and Y bounds, as
bound consistency does, and the store sees one write per moved bound, not
one call per rule and period.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .domains import (
    DomainStore,
    Status,
    Wipeout,
    iv_intersect,
    iv_normalize,
    lower_hi,
    merge,
    raise_lo,
    read_bounds,
    write_back,
)


@dataclass(frozen=True)
class DisjunctiveSpec:
    """Allowed production intervals per period; missing periods are free.

    The resulting domain is {0} union the listed intervals (intersected with
    the instance's own production bounds when applied).
    """

    intervals: dict[int, tuple[tuple[int, int], ...]]

    @classmethod
    def uniform(cls, T: int, intervals) -> "DisjunctiveSpec":
        ivs = iv_normalize(intervals)
        return cls(intervals={t: ivs for t in range(T)})

    def check_horizon(self, T: int) -> None:
        """ValueError for a period outside a horizon of T periods."""
        for t in self.intervals:
            if not 0 <= t < T:
                raise _outside_horizon(t)


def _outside_horizon(t: int) -> ValueError:
    return ValueError(f"disjunction for period {t + 1}, outside the horizon")


@dataclass(frozen=True)
class QRSpec:
    Q: int
    R: int

    def validate(self) -> None:
        if not (1 <= self.Q <= self.R):
            raise ValueError(f"need 1 <= Q <= R, got Q={self.Q}, R={self.R}")


@dataclass(frozen=True)
class SideSpecs:
    disjunction: DisjunctiveSpec | None = None
    qr: QRSpec | None = None


def apply_disjunctions(store: DomainStore, spec: DisjunctiveSpec) -> Status:
    """Restrict the production domains; a period outside the store's
    horizon is a ValueError, raised before any domain changes."""
    for t in spec.intervals:
        if not store.has_var(("X", t)):
            raise _outside_horizon(t)
    status = Status.UNCHANGED
    for t, ivs in sorted(spec.intervals.items()):
        allowed = iv_normalize(tuple(ivs) + ((0, 0),))
        new = iv_intersect(store.intervals(("X", t)), allowed)
        st = store.set_intervals(("X", t), new)
        if st is Status.FAILED:
            return Status.FAILED
        status = merge(status, st)
    return status


class SequenceSystem:
    """Sequence constraints over the Y's, all sharing one prefix-count chain.

    ``post(l, u, k)`` requires every k consecutive setup variables to sum to
    a value in [l, u]; windows are those fully inside the horizon.
    """

    def __init__(self, T: int):
        self.T = T
        self.windows: list[tuple[int, int, int]] = []
        self._installed = False

    def post(self, l: int, u: int, k: int) -> None:
        if not (0 <= l <= u <= k):
            raise ValueError(f"need 0 <= l <= u <= k, got ({l}, {u}, {k})")
        self.windows.append((l, u, k))

    def install(self, store: DomainStore) -> None:
        if self._installed:
            return
        store.add_var(("N", 0), 0, 0)
        for b in range(1, self.T + 1):
            store.add_var(("N", b), 0, b)
        self._installed = True

    def propagate(self, store: DomainStore) -> Status:
        """Channeling and window rules to a fixpoint. A sweep wakes the
        channel of every period forward, then every window of each posted
        constraint, then every channel backward; sweeps repeat until one
        moves nothing.

        The sweeps run on plain lists of the N and Y bounds, and the bounds
        reached are written back with ``set_min``/``set_max``. On a wipeout
        the bounds reached so far are written back and the request that
        empties a domain is replayed on the store, which leaves it failed
        exactly where a sweep of store calls in the same order would have.
        """
        if not self._installed:
            self.install(store)
        if store.failed:
            return Status.FAILED
        T = self.T
        nl, nh, n_holes = read_bounds(store, "N", T + 1)
        yl, yh, y_holes = read_bounds(store, "Y", T)
        bounds = (("N", nl, nh), ("Y", yl, yh))
        start = [(lo[:], hi[:]) for _, lo, hi in bounds]

        def channel(b: int) -> bool:
            # N_{b+1} = N_b + Y_b
            moved = raise_lo(nl, nh, n_holes, b + 1, nl[b] + yl[b], "N")
            moved |= lower_hi(nl, nh, n_holes, b + 1, nh[b] + yh[b], "N")
            ml, mh = nl[b + 1], nh[b + 1]
            moved |= raise_lo(nl, nh, n_holes, b, ml - yh[b], "N")
            moved |= lower_hi(nl, nh, n_holes, b, mh - yl[b], "N")
            moved |= raise_lo(yl, yh, y_holes, b, ml - nh[b], "Y")
            moved |= lower_hi(yl, yh, y_holes, b, mh - nl[b], "Y")
            return moved

        def window(a: int, k: int, l: int, u: int) -> bool:
            # l <= N_{a+k} - N_a <= u, both sides from the bounds on entry
            al, ah, bl, bh = nl[a], nh[a], nl[a + k], nh[a + k]
            moved = raise_lo(nl, nh, n_holes, a + k, al + l, "N")
            moved |= lower_hi(nl, nh, n_holes, a + k, ah + u, "N")
            moved |= raise_lo(nl, nh, n_holes, a, bl - u, "N")
            moved |= lower_hi(nl, nh, n_holes, a, bh - l, "N")
            return moved

        wipeout = None
        try:
            moved = True
            while moved:
                moved = False
                for b in range(T):
                    moved |= channel(b)
                for l, u, k in self.windows:
                    for a in range(0, T - k + 1):
                        moved |= window(a, k, l, u)
                for b in range(T - 1, -1, -1):
                    moved |= channel(b)
        except Wipeout as exc:
            wipeout = exc.args
        # Bounds only tighten, so a sweep moved something exactly when a
        # bound differs from its start.
        return write_back(store, bounds, start, wipeout)


def sequence_propagate(store: DomainStore, T: int, l: int, u: int, k: int) -> Status:
    """One-off propagation of a single Sequence constraint over the Y's."""
    system = SequenceSystem(T)
    system.post(l, u, k)
    if not store.has_var(("N", 0)):
        system.install(store)
    else:
        system._installed = True
    return system.propagate(store)


def post_qr(T: int, Q: int, R: int) -> SequenceSystem:
    """Both Sequence constraints of a Q/R spec on one shared count chain.

    At most one production in any Q+1 consecutive periods, at least one in
    any R+1 consecutive ones.
    """
    QRSpec(Q, R).validate()
    system = SequenceSystem(T)
    system.post(0, 1, Q + 1)
    system.post(1, R + 1, R + 1)
    return system


def qr_satisfied(y, Q: int, R: int) -> bool:
    """Direct window check of a fully instantiated setup vector."""
    T = len(y)
    for a in range(0, T - (Q + 1) + 1):
        if sum(y[a : a + Q + 1]) > 1:
            return False
    for a in range(0, T - (R + 1) + 1):
        if sum(y[a : a + R + 1]) < 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Side-spec files: lines `disj t lo hi` (t 1-based) and `qr Q R`.
# ---------------------------------------------------------------------------


def write_side_specs(specs: SideSpecs, path: str | Path) -> None:
    lines = []
    if specs.disjunction is not None:
        for t in sorted(specs.disjunction.intervals):
            # An empty tuple allows only X = 0, which `disj t 0 0` reads back as.
            for lo, hi in specs.disjunction.intervals[t] or ((0, 0),):
                lines.append(f"disj {t + 1} {lo} {hi}")
    if specs.qr is not None:
        lines.append(f"qr {specs.qr.Q} {specs.qr.R}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="ascii")


def read_side_specs(path: str | Path) -> SideSpecs:
    disj: dict[int, list[tuple[int, int]]] = {}
    qr = None
    for lineno, raw in enumerate(Path(path).read_text(encoding="ascii").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "disj" and len(parts) == 4:
                t, lo, hi = int(parts[1]) - 1, int(parts[2]), int(parts[3])
                if t < 0:
                    raise ValueError("periods start at 1")
                if lo < 0:
                    raise ValueError("production values start at 0")
                if lo > hi:
                    raise ValueError("empty interval")
                disj.setdefault(t, []).append((lo, hi))
            elif parts[0] == "qr" and len(parts) == 3:
                qr = QRSpec(int(parts[1]), int(parts[2]))
                qr.validate()
            else:
                raise ValueError("unrecognized directive")
        except (ValueError, IndexError) as exc:
            raise ValueError(f"{path}:{lineno}: bad side-spec line {raw!r}: {exc}") from exc
    spec_disj = (
        DisjunctiveSpec(intervals={t: iv_normalize(ivs) for t, ivs in disj.items()}) if disj else None
    )
    return SideSpecs(disjunction=spec_disj, qr=qr)
