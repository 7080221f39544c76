"""Bound consistency on bound lists against the store-level reference.

``reference_bc`` is the per-wake implementation that ``bc_feasibility``
replaced: every wake reads and writes the store, and with domain holes full
forward sweeps repeat until the store stops changing. It stays here, with
its setup link ``reference_setup``, as the reference the array sweep must
reproduce exactly.
"""

import copy
import random

from lotsizing import DisjunctiveSpec, DomainStore, Status, apply_disjunctions, bc_feasibility
from lotsizing.domains import merge
from conftest import rand_normalized


def reference_setup(store: DomainStore, t: int) -> Status:
    """Link X_t and Y_t through the setup constraint X_t <= cap * Y_t.

    Y fixed to 0 forces X_t = 0; a positive production minimum forces
    Y_t = 1. Y_t = 1 with 0 in dom(X_t) stays: paying the setup while
    producing nothing is allowed.
    """
    if store.failed:
        return Status.FAILED
    status = Status.UNCHANGED
    if store.max(("Y", t)) == 0:
        status = merge(status, store.assign(("X", t), 0))
        if status is Status.FAILED:
            return status
    if store.min(("X", t)) > 0:
        status = merge(status, store.assign(("Y", t), 1))
    return status


def _reference_balance(store: DomainStore, inst, t: int) -> Status:
    """I_{t-1} + X_t = d_t + I_t (I_{-1} is 0), to its own fixpoint."""
    d = inst.d[t]
    overall = Status.UNCHANGED
    while True:
        st = Status.UNCHANGED
        if t == 0:
            pl = ph = 0
        else:
            pl, ph = store.min(("I", t - 1)), store.max(("I", t - 1))
        xl, xh = store.min(("X", t)), store.max(("X", t))
        st = merge(st, store.set_min(("I", t), pl + xl - d))
        st = merge(st, store.set_max(("I", t), ph + xh - d))
        if st is Status.FAILED:
            return st
        il, ih = store.min(("I", t)), store.max(("I", t))
        st = merge(st, store.set_min(("X", t), d + il - ph))
        st = merge(st, store.set_max(("X", t), d + ih - pl))
        if st is Status.FAILED:
            return st
        if t > 0:
            xl, xh = store.min(("X", t)), store.max(("X", t))
            st = merge(st, store.set_min(("I", t - 1), d + il - xh))
            st = merge(st, store.set_max(("I", t - 1), d + ih - xl))
            if st is Status.FAILED:
                return st
        if st is Status.UNCHANGED:
            return overall
        overall = Status.CHANGED


def reference_bc(store: DomainStore, inst) -> tuple[Status, dict]:
    """Store-level bound consistency: forward setup/balance wakes, backward
    balance/setup wakes, then forward sweeps while holes keep it changing."""
    wakes: dict[tuple[str, int], int] = {}

    def wake(kind: str, t: int) -> Status:
        wakes[(kind, t)] = wakes.get((kind, t), 0) + 1
        if kind == "setup":
            return reference_setup(store, t)
        return _reference_balance(store, inst, t)

    holes = any(
        len(store.intervals(("X", t))) > 1 or len(store.intervals(("I", t))) > 1
        for t in range(inst.T)
    )
    status = Status.UNCHANGED
    for t in range(inst.T):
        for kind in ("setup", "balance"):
            status = merge(status, wake(kind, t))
            if status is Status.FAILED:
                return Status.FAILED, wakes
    for t in range(inst.T - 1, -1, -1):
        for kind in ("balance", "setup"):
            status = merge(status, wake(kind, t))
            if status is Status.FAILED:
                return Status.FAILED, wakes
    while holes:
        before = store.mod_count
        for t in range(inst.T):
            for kind in ("setup", "balance"):
                st = wake(kind, t)
                if st is Status.FAILED:
                    return Status.FAILED, wakes
                status = merge(status, st)
        if store.mod_count == before:
            break
    return status, wakes


def _plan_domains(store: DomainStore, T: int) -> dict:
    return {(kind, t): store.intervals((kind, t)) for kind in ("X", "I", "Y") for t in range(T)}


def _tighten_randomly(rng: random.Random, store: DomainStore, inst) -> None:
    """Random set_min/set_max/remove_value/assign requests on X, I and Y,
    plus a leveled-production disjunction now and then. A request that would
    wipe a domain out is skipped, so the store stays live."""
    if rng.random() < 0.3:
        a = rng.randint(0, 2)
        b = rng.randint(a, a + 2)
        spec = DisjunctiveSpec.uniform(inst.T, ((a, b), (b + 2, b + 2 + rng.randint(0, 3))))
        if apply_disjunctions(copy.deepcopy(store), spec) is not Status.FAILED:
            apply_disjunctions(store, spec)
    for _ in range(rng.randint(0, 6)):
        key = (rng.choice("XIY"), rng.randrange(inst.T))
        lo, hi = store.min(key), store.max(key)
        kind = rng.choice(("set_min", "set_max", "remove_value", "remove_value", "assign"))
        value = rng.randint(lo, hi)
        if kind == "remove_value" and store.intervals(key) == ((value, value),):
            continue
        if kind == "assign" and not store.contains(key, value):
            continue
        store.tighten(key, kind, value)
    assert not store.failed


class TestArraySweepMatchesReference:
    def test_identical_domains_status_and_wakes(self):
        rng = random.Random(20261019)
        kinds = {"fresh": 0, "tightened": 0, "holes": 0, "failed": 0, "failed_holes": 0}
        for n in range(2400):
            inst = rand_normalized(rng, max_T=6, max_d=6, max_cap=9)
            store = DomainStore.for_instance(inst)
            if store.failed:
                continue
            if n % 3:
                _tighten_randomly(rng, store, inst)
            ref = copy.deepcopy(store)
            holes = any(len(ivs) > 1 for ivs in _plan_domains(store, inst.T).values())

            st, wakes = bc_feasibility(store, inst)
            ref_st, ref_wakes = reference_bc(ref, inst)

            assert st is ref_st, (inst, n)
            assert store.failed == ref.failed
            assert _plan_domains(store, inst.T) == _plan_domains(ref, inst.T), (inst, n)
            # The sweep moves a bound that lands in a hole as the store does,
            # so it wakes the constraints as often as the reference, holes
            # or not; without holes, at most twice each.
            assert wakes == ref_wakes, (inst, n)
            if not holes:
                assert all(count <= 2 for count in wakes.values())
            kinds["fresh" if n % 3 == 0 else "tightened"] += 1
            kinds["holes"] += holes
            kinds["failed"] += st is Status.FAILED
            kinds["failed_holes"] += holes and st is Status.FAILED
        assert kinds["fresh"] + kinds["tightened"] >= 2000
        live = kinds["fresh"] + kinds["tightened"] - kinds["failed"]
        assert kinds["holes"] >= 300 and kinds["failed"] >= 300 and kinds["failed_holes"] >= 50, kinds
        assert live >= 500, kinds

    def test_fixpoint_is_left_alone(self):
        rng = random.Random(7)
        for _ in range(300):
            inst = rand_normalized(rng, max_T=6, max_d=6, max_cap=9)
            store = DomainStore.for_instance(inst)
            if store.failed:
                continue
            _tighten_randomly(rng, store, inst)
            if bc_feasibility(store, inst)[0] is Status.FAILED:
                continue
            before = (store.mod_count, store.plan_epoch)
            assert bc_feasibility(store, inst)[0] is Status.UNCHANGED
            assert (store.mod_count, store.plan_epoch) == before
