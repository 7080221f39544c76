"""Problem data for the capacitated single-item lot-sizing problem.

An instance plans production of one item over T periods. Period t (0-based
internally) carries a demand ``d[t]``, a unit production cost ``p[t]``, a unit
holding cost ``h[t]`` on end-of-period inventory, a setup cost ``s[t]`` paid
whenever the period produces at least one unit, production bounds
``alpha_lo[t] <= X_t <= alpha_hi[t]`` and end-of-period inventory bounds
``beta_lo[t] <= I_t <= beta_hi[t]``. Initial inventory is zero.

This module owns:
  * validation and normalization (a trailing period absorbing any mandatory
    end-of-horizon stock, so solvers can assume the final inventory is zero),
  * the equivalent reformulation without production/inventory lower bounds,
  * the random instance generator used by the benchmark classes,
  * plain-text file round-tripping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

from .domains import DomainStore, Ivs, iv_shift
from .rng import SplitMix64


@dataclass(frozen=True)
class Instance:
    """Immutable lot-sizing instance; all vectors are length ``T``, 0-based."""

    T: int
    d: tuple[int, ...]
    p: tuple[int, ...]
    h: tuple[int, ...]
    s: tuple[int, ...]
    alpha_lo: tuple[int, ...]
    alpha_hi: tuple[int, ...]
    beta_lo: tuple[int, ...]
    beta_hi: tuple[int, ...]

    def max_cost_bounds(self) -> tuple[int, int, int, int]:
        """Safe upper bounds (Cp, Ch, Cs, C) used to seed cost domains."""
        cp = sum(pt * at for pt, at in zip(self.p, self.alpha_hi))
        ch = sum(ht * bt for ht, bt in zip(self.h, self.beta_hi))
        cs = sum(self.s)
        return cp, ch, cs, cp + ch + cs


def make_instance(
    d: Sequence[int],
    p: Sequence[int],
    h: Sequence[int],
    s: Sequence[int],
    alpha_lo: Sequence[int] | None = None,
    alpha_hi: Sequence[int] | None = None,
    beta_lo: Sequence[int] | None = None,
    beta_hi: Sequence[int] | None = None,
) -> Instance:
    """Convenience constructor with validation; unbounded sides default wide."""
    T = len(d)
    total = sum(int(x) for x in d)
    if alpha_lo is None:
        alpha_lo = [0] * T
    if alpha_hi is None:
        alpha_hi = [total] * T
    if beta_lo is None:
        beta_lo = [0] * T
    if beta_hi is None:
        beta_hi = [total] * T
    inst = Instance(
        T=T,
        d=tuple(int(x) for x in d),
        p=tuple(int(x) for x in p),
        h=tuple(int(x) for x in h),
        s=tuple(int(x) for x in s),
        alpha_lo=tuple(int(x) for x in alpha_lo),
        alpha_hi=tuple(int(x) for x in alpha_hi),
        beta_lo=tuple(int(x) for x in beta_lo),
        beta_hi=tuple(int(x) for x in beta_hi),
    )
    validate_instance(inst)
    return inst


def validate_instance(inst: Instance) -> None:
    """Raise ValueError naming the offending field if any invariant fails."""
    vectors = ("d", "p", "h", "s", "alpha_lo", "alpha_hi", "beta_lo", "beta_hi")
    if inst.T < 1:
        raise ValueError(f"T must be >= 1, got {inst.T}")
    for name in vectors:
        vec = getattr(inst, name)
        if len(vec) != inst.T:
            raise ValueError(f"{name} has length {len(vec)}, expected T={inst.T}")
    for t in range(inst.T):
        for name in ("d", "p", "h", "s", "alpha_lo", "beta_lo"):
            if getattr(inst, name)[t] < 0:
                raise ValueError(f"{name}[{t}] = {getattr(inst, name)[t]} must be >= 0")
        if inst.alpha_lo[t] > inst.alpha_hi[t]:
            raise ValueError(
                f"alpha_lo[{t}] = {inst.alpha_lo[t]} exceeds alpha_hi[{t}] = {inst.alpha_hi[t]}"
            )
        if inst.beta_lo[t] > inst.beta_hi[t]:
            raise ValueError(
                f"beta_lo[{t}] = {inst.beta_lo[t]} exceeds beta_hi[{t}] = {inst.beta_hi[t]}"
            )


def _end_inventory_reachable(inst: Instance) -> tuple[int, int] | None:
    """Interval of final inventories reachable under the flow and bound
    constraints, ignoring costs. None if the instance is infeasible.

    One forward sweep: the set of reachable I_t values is an interval because
    each step adds the production interval and clips to the inventory bounds.
    """
    lo, hi = 0, 0
    for t in range(inst.T):
        lo = max(lo + inst.alpha_lo[t] - inst.d[t], inst.beta_lo[t])
        hi = min(hi + inst.alpha_hi[t] - inst.d[t], inst.beta_hi[t])
        if lo > hi:
            return None
    return lo, hi


def validate_and_normalize(inst: Instance) -> Instance:
    """Validate and force the final inventory down to its minimum feasible
    value by appending a zero-cost trailing period that consumes it.

    If the mandatory end-of-horizon stock q is positive, a period with demand
    q, zero costs and zero capacities is appended. Idempotent; infeasible
    instances are returned unchanged (the solver reports infeasibility).
    """
    validate_instance(inst)
    reach = _end_inventory_reachable(inst)
    if reach is None:
        return inst
    q = reach[0]
    if q <= 0:
        return inst
    return Instance(
        T=inst.T + 1,
        d=inst.d + (q,),
        p=inst.p + (0,),
        h=inst.h + (0,),
        s=inst.s + (0,),
        alpha_lo=inst.alpha_lo + (0,),
        alpha_hi=inst.alpha_hi + (0,),
        beta_lo=inst.beta_lo + (0,),
        beta_hi=inst.beta_hi + (0,),
    )


@dataclass(frozen=True)
class StrippedInstance:
    """Equivalent problem with all production/inventory lower bounds at zero,
    read from one set of domains: the snapshot a propagation pass reads.

    ``x_off[t]`` / ``i_off[t]`` are the per-period amounts subtracted from
    X_t / I_t; adding them back maps a solution of the stripped problem onto
    the original. The baseline tuple (cp_min, ch_min, cs_min, c_min) is the
    cost of those mandatory quantities.

    Per period it carries the arc data of the path network: the production
    and inventory capacities ``x_cap`` (0 when Y = 0) and ``i_cap``, the
    setup ``charge`` still payable (0 once Y is fixed) and the setup
    ``sunk`` when Y = 1. It also keeps the Y bounds and the X and I domains
    shifted by the offsets (``x_ivs``, ``i_ivs``), whose holes the DP
    honors.
    """

    T: int
    d: tuple[int, ...]
    p: tuple[int, ...]
    h: tuple[int, ...]
    s: tuple[int, ...]
    x_cap: tuple[int, ...]
    i_cap: tuple[int, ...]
    x_off: tuple[int, ...]
    i_off: tuple[int, ...]
    cp_min: int
    ch_min: int
    cs_min: int
    c_min: int
    charge: tuple[int, ...]
    sunk: tuple[int, ...]
    y_lo: tuple[int, ...]
    y_hi: tuple[int, ...]
    x_ivs: tuple[Ivs, ...]
    i_ivs: tuple[Ivs, ...]

    @cached_property
    def scale(self) -> int:
        """The least scale that makes every amortized setup
        charge / x_cap an integer."""
        return math.lcm(*(c // math.gcd(s, c) for c, s in zip(self.x_cap, self.charge) if c and s))

    @cached_property
    def amort(self) -> list[int]:
        """charge / x_cap (0 without capacity) times ``scale``, per period."""
        scale = self.scale
        return [s * scale // c if c else 0 for c, s in zip(self.x_cap, self.charge)]


def strip_lower_bounds(inst: Instance, store: DomainStore | None = None) -> StrippedInstance:
    """Remove lower bounds by treating them as mandatory quantities.

    The domains are those of ``store`` (the instance's own bounds when
    None); a propagator strips its store at the bound consistency fixpoint.
    Demands become ``d'[t] = d[t] + i_min[t] - x_min[t] - i_min[t-1]``; a
    negative adjusted demand means the caller did not establish bound
    consistency first and is reported as an error.
    """
    T = inst.T
    if store is None:
        x_doms = [((lo, hi),) for lo, hi in zip(inst.alpha_lo, inst.alpha_hi)]
        i_doms = [((lo, hi),) for lo, hi in zip(inst.beta_lo, inst.beta_hi)]
        y_doms = [((0, 1),)] * T
    else:
        x_doms = [store.intervals(("X", t)) for t in range(T)]
        i_doms = [store.intervals(("I", t)) for t in range(T)]
        y_doms = [store.intervals(("Y", t)) for t in range(T)]
    xm = [ivs[0][0] for ivs in x_doms]
    im = [ivs[0][0] for ivs in i_doms]
    y_lo = tuple(ivs[0][0] for ivs in y_doms)
    y_hi = tuple(ivs[-1][1] for ivs in y_doms)
    d2, s2 = [], []
    for t in range(T):
        prev_im = im[t - 1] if t > 0 else 0
        dt = inst.d[t] + im[t] - xm[t] - prev_im
        if dt < 0:
            raise ValueError(
                f"adjusted demand for period {t} is {dt} < 0; "
                "bound consistency must be established before stripping"
            )
        d2.append(dt)
        s2.append(0 if xm[t] > 0 else inst.s[t])
    cp_min = sum(inst.p[t] * xm[t] for t in range(T))
    ch_min = sum(inst.h[t] * im[t] for t in range(T))
    cs_min = sum(inst.s[t] for t in range(T) if xm[t] > 0)
    return StrippedInstance(
        T=T,
        d=tuple(d2),
        p=inst.p,
        h=inst.h,
        s=tuple(s2),
        x_cap=tuple(ivs[-1][1] - lo if hi else 0 for ivs, lo, hi in zip(x_doms, xm, y_hi)),
        i_cap=tuple(ivs[-1][1] - lo for ivs, lo in zip(i_doms, im)),
        x_off=tuple(xm),
        i_off=tuple(im),
        cp_min=cp_min,
        ch_min=ch_min,
        cs_min=cs_min,
        c_min=cp_min + ch_min + cs_min,
        charge=tuple(s if lo < hi else 0 for s, lo, hi in zip(s2, y_lo, y_hi)),
        sunk=tuple(s if lo else 0 for s, lo in zip(s2, y_lo)),
        y_lo=y_lo,
        y_hi=y_hi,
        x_ivs=tuple(iv_shift(ivs, -lo) if lo else ivs for ivs, lo in zip(x_doms, xm)),
        i_ivs=tuple(iv_shift(ivs, -lo) if lo else ivs for ivs, lo in zip(i_doms, im)),
    )


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs of the benchmark generator.

    ``theta`` splits the saturated per-unit cost ``e`` between setup and unit
    production cost; capacities are ``lam * d_avg`` unless demand peaks force
    a larger effective mean (see ``generate``).
    """

    d_avg: int
    delta: int
    theta_lo: float
    theta_hi: float
    e: int = 10
    lam: float = 3.0
    T: int = 40
    seed: int = 0
    peak_value: int = 0
    peak_periods: tuple[int, ...] = ()

    def validate(self) -> None:
        if not (0.0 <= self.theta_lo <= self.theta_hi <= 1.0):
            raise ValueError(f"theta interval [{self.theta_lo}, {self.theta_hi}] not within [0, 1]")
        if self.delta > self.d_avg:
            raise ValueError(f"delta = {self.delta} exceeds d_avg = {self.d_avg}")
        if self.delta < 0 or self.d_avg < 0 or self.e < 0:
            raise ValueError("d_avg, delta and e must be non-negative")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        for t in self.peak_periods:
            if not (0 <= t < self.T):
                raise ValueError(f"peak period {t} outside horizon 0..{self.T - 1}")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def generate(params: GeneratorParams) -> Instance:
    """Generate a benchmark instance; deterministic for a fixed seed.

    Holding costs are 1 everywhere. Demands are uniform integers in
    [d_avg - delta, d_avg + delta]; peak periods (if any) are then overwritten
    with ``peak_value``. Capacities are constant: lam * d_avg for plain
    classes, lam * mean(final demand) when peaks are present, since peaks
    above the plain capacity would otherwise make the instance infeasible.
    Per period, theta is drawn in [theta_lo, theta_hi] and the saturated unit
    cost e is split into s[t] = round(theta * e * cap) and
    p[t] = round((1 - theta) * e).
    """
    params.validate()
    rng = SplitMix64(params.seed)
    d = [rng.randint(params.d_avg - params.delta, params.d_avg + params.delta) for _ in range(params.T)]
    for t in params.peak_periods:
        d[t] = params.peak_value
    if params.peak_periods:
        mean_d = sum(d) / params.T
        cap = _round_half_up(params.lam * mean_d)
    else:
        cap = _round_half_up(params.lam * params.d_avg)
    p, h, s = [], [], []
    for _ in range(params.T):
        theta = rng.uniform(params.theta_lo, params.theta_hi)
        s.append(_round_half_up(theta * params.e * cap))
        p.append(_round_half_up((1.0 - theta) * params.e))
        h.append(1)
    inst = Instance(
        T=params.T,
        d=tuple(d),
        p=tuple(p),
        h=tuple(h),
        s=tuple(s),
        alpha_lo=(0,) * params.T,
        alpha_hi=(cap,) * params.T,
        beta_lo=(0,) * params.T,
        beta_hi=(cap,) * params.T,
    )
    validate_instance(inst)
    return inst


# Benchmark class registry. Peak classes replace the demand of the listed
# periods (1-based 6..9, 12..15, 22..25, 32..36) by 50,000 units. Disj/QR
# classes carry side-constraint specs consumed by the CLI.
PEAK_PERIODS_1BASED = tuple(range(6, 10)) + tuple(range(12, 16)) + tuple(range(22, 26)) + tuple(range(32, 37))
DEFAULT_PEAK_VALUE = 50_000
DISJ_INTERVALS = ((0, 30), (100, 150), (200, 240))


@dataclass(frozen=True)
class InstanceClass:
    name: str
    params: GeneratorParams
    disjunction: tuple[tuple[int, int], ...] | None = None
    qr: tuple[int, int] | None = None


def _cls(name, d_avg, delta, tlo, thi, lam, T, peaks=False, disj=None, qr=None) -> InstanceClass:
    peak_periods = tuple(t - 1 for t in PEAK_PERIODS_1BASED if t <= T) if peaks else ()
    return InstanceClass(
        name=name,
        params=GeneratorParams(
            d_avg=d_avg,
            delta=delta,
            theta_lo=tlo,
            theta_hi=thi,
            lam=lam,
            T=T,
            peak_value=DEFAULT_PEAK_VALUE if peaks else 0,
            peak_periods=peak_periods,
        ),
        disjunction=disj,
        qr=qr,
    )


def _build_class_table() -> dict[str, InstanceClass]:
    table: dict[str, InstanceClass] = {}
    ls = [
        _cls("C1LS", 1000, 100, 0.8, 1.0, 3, 40),
        _cls("C2LS", 1000, 500, 0.4, 0.6, 3, 40),
        _cls("C3LS", 1000, 100, 0.8, 1.0, 3, 80),
        _cls("C4LS", 1000, 500, 0.4, 0.6, 3, 80),
        _cls("C5LS", 1000, 50, 0.5, 0.5, 3, 40),
    ]
    peaks = [
        _cls("C1Peaks", 100, 50, 0.8, 1.0, 4, 40, peaks=True),
        _cls("C2Peaks", 100, 50, 0.4, 0.6, 4, 40, peaks=True),
        _cls("C3Peaks", 100, 50, 0.5, 0.5, 4, 40, peaks=True),
        _cls("C4Peaks", 100, 20, 0.8, 1.0, 4, 40, peaks=True),
        _cls("C5Peaks", 100, 20, 0.4, 0.6, 4, 40, peaks=True),
    ]
    disj_base = [
        (100, 50, 0.8, 1.0),
        (100, 60, 0.4, 0.6),
        (100, 70, 0.3, 0.8),
        (100, 30, 0.6, 1.0),
        (100, 50, 0.9, 1.0),
    ]
    disj = []
    for i, (da, de, tl, th) in enumerate(disj_base, start=1):
        disj.append(_cls(f"C{i}Disj", da, de, tl, th, 5, 40, disj=DISJ_INTERVALS))
        disj.append(_cls(f"C{i + 5}Disj", da, de, tl, th, 5, 80, disj=DISJ_INTERVALS))
    qr_params = {1: (2, 6), 2: (2, 6), 3: (2, 6), 4: (3, 7), 5: (3, 7), 6: (2, 6), 7: (2, 6), 8: (2, 6), 9: (3, 7), 10: (3, 7)}
    qr, disjqr = [], []
    for i, (da, de, tl, th) in enumerate(disj_base, start=1):
        for idx, T in ((i, 40), (i + 5, 80)):
            qr.append(_cls(f"C{idx}QR", da, de, tl, th, 5, T, qr=qr_params[idx]))
            disjqr.append(_cls(f"C{idx}DisjQR", da, de, tl, th, 5, T, disj=DISJ_INTERVALS, qr=qr_params[idx]))
    return {c.name: c for c in ls + peaks + disj + qr + disjqr}


INSTANCE_CLASSES = _build_class_table()


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------
#
# Text format, ASCII, newline-terminated:
#   T <int>
#   t d p h s alpha_lo alpha_hi beta_lo beta_hi     (one line per period, t is 1-based)
# Lines starting with '#' are comments.

_ROW_FIELDS = ("t", "d", "p", "h", "s", "alpha_lo", "alpha_hi", "beta_lo", "beta_hi")


def write_instance(inst: Instance, path: str | Path) -> None:
    lines = [f"T {inst.T}"]
    for t in range(inst.T):
        lines.append(
            f"{t + 1} {inst.d[t]} {inst.p[t]} {inst.h[t]} {inst.s[t]} "
            f"{inst.alpha_lo[t]} {inst.alpha_hi[t]} {inst.beta_lo[t]} {inst.beta_hi[t]}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_instance(path: str | Path) -> Instance:
    try:
        text = Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise OSError(f"cannot read instance file {path}: {exc}") from exc
    header: int | None = None
    rows: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if parts[0] != "T" or len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected header 'T <int>', got {raw!r}")
            try:
                header = int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: field T: invalid integer {parts[1]!r}") from None
            continue
        if len(parts) != len(_ROW_FIELDS):
            raise ValueError(
                f"{path}:{lineno}: expected {len(_ROW_FIELDS)} fields {' '.join(_ROW_FIELDS)}, got {len(parts)}"
            )
        row = []
        for field, tok in zip(_ROW_FIELDS, parts):
            try:
                row.append(int(tok))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: field {field}: invalid integer {tok!r}") from None
        rows.append(row)
    if header is None:
        raise ValueError(f"{path}: missing 'T <int>' header")
    if len(rows) != header:
        raise ValueError(f"{path}: header says T={header} but found {len(rows)} period rows")
    for idx, row in enumerate(rows, start=1):
        if row[0] != idx:
            raise ValueError(f"{path}: period rows out of order: expected t={idx}, got t={row[0]}")
    cols = list(zip(*rows))
    inst = Instance(
        T=header,
        d=tuple(cols[1]),
        p=tuple(cols[2]),
        h=tuple(cols[3]),
        s=tuple(cols[4]),
        alpha_lo=tuple(cols[5]),
        alpha_hi=tuple(cols[6]),
        beta_lo=tuple(cols[7]),
        beta_hi=tuple(cols[8]),
    )
    validate_instance(inst)
    return inst
