"""Domain store: interval sets, tightening, trail restoration, channeling."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lotsizing import DomainStore, Status, bc_feasibility, make_instance
from lotsizing.domains import (
    Wipeout,
    iv_from_mask,
    iv_intersect,
    iv_mask,
    iv_normalize,
    iv_remove_value,
    iv_set_max,
    iv_set_min,
    iv_values,
    lower_hi,
    raise_lo,
)


def small_problem():
    inst = make_instance(d=[2, 3, 1], p=[1, 1, 1], h=[1, 1, 1], s=[2, 2, 2],
                         alpha_hi=[5, 5, 5], beta_hi=[10, 10, 10])
    return DomainStore.for_instance(inst), inst


def small_store() -> DomainStore:
    return small_problem()[0]


class TestIntervalSets:
    def test_normalize_merges_adjacent(self):
        assert iv_normalize([(4, 6), (0, 2), (3, 3)]) == ((0, 6),)
        assert iv_normalize([(0, 2), (5, 7)]) == ((0, 2), (5, 7))
        assert iv_normalize([(3, 1)]) == ()

    def test_invariant_sorted_disjoint_nonadjacent(self):
        rng = random.Random(0)
        for _ in range(200):
            ivs = iv_normalize([(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(5)])
            for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
                assert a1 <= b1 and a2 <= b2
                assert b1 + 1 < a2

    def test_intersect_matches_set_semantics(self):
        rng = random.Random(1)
        for _ in range(200):
            a = iv_normalize([(rng.randint(0, 20), rng.randint(0, 20)) for _ in range(3)])
            b = iv_normalize([(rng.randint(0, 20), rng.randint(0, 20)) for _ in range(3)])
            got = set(iv_values(iv_intersect(a, b)))
            want = set(iv_values(a)) & set(iv_values(b))
            assert got == want

    def test_mask_round_trip(self):
        ivs = ((0, 3), (7, 7), (9, 12))
        mask = iv_mask(ivs, 0, 12)
        assert iv_from_mask(mask, 0) == ivs


# Non-empty domains of up to four intervals in -5..30: most with holes.
domains = st.lists(st.tuples(st.integers(-5, 30), st.integers(0, 6)), min_size=1, max_size=4).map(
    lambda pairs: iv_normalize((lo, lo + w) for lo, w in pairs)
)
values = st.integers(-8, 40)


class TestIntervalProperties:
    @given(domains, values)
    def test_bound_and_removal_match_set_semantics(self, ivs, v):
        vals = set(iv_values(ivs))
        for got, want in (
            (iv_set_min(ivs, v), {x for x in vals if x >= v}),
            (iv_set_max(ivs, v), {x for x in vals if x <= v}),
            (iv_remove_value(ivs, v), vals - {v}),
        ):
            assert set(iv_values(got)) == want
            assert iv_normalize(got) == got

    @given(domains, st.lists(st.tuples(st.booleans(), values), min_size=1, max_size=8))
    def test_sweep_bounds_move_as_the_store_moves_them(self, ivs, requests):
        """``raise_lo``/``lower_hi`` on plain bound lists, with the domain's
        holes as read before the sweep, against ``set_min``/``set_max`` on
        the store: the same bounds after every request, the same moves, and
        a ``Wipeout`` exactly when the store fails, naming that request."""
        key = ("X", 0)
        store = DomainStore()
        store.add_var(key, ivs[0][0], ivs[-1][1])
        store.set_intervals(key, ivs)
        lo, hi, holes = [ivs[0][0]], [ivs[-1][1]], [ivs if len(ivs) > 1 else None]
        for up, v in requests:
            sweep, kind, tighten = (raise_lo, "set_min", store.set_min) if up else (lower_hi, "set_max", store.set_max)
            try:
                moved = sweep(lo, hi, holes, 0, v, "X")
            except Wipeout as exc:
                assert exc.args == ("X", 0, kind, v)
                assert tighten(key, v) is Status.FAILED and store.failed
                return
            status = tighten(key, v)
            assert status is (Status.CHANGED if moved else Status.UNCHANGED)
            assert (lo[0], hi[0]) == (store.min(key), store.max(key))


class TestTighten:
    def test_set_min_on_interval(self):
        store = small_store()
        assert store.tighten(("I", 0), "set_min", 4) is Status.CHANGED
        assert store.intervals(("I", 0)) == ((4, 10),)

    def test_assign_binary(self):
        store = small_store()
        assert store.tighten(("Y", 1), "assign", 1) is Status.CHANGED
        assert store.value(("Y", 1)) == 1

    def test_remove_last_value_fails(self):
        store = small_store()
        store.assign(("X", 0), 3)
        assert store.tighten(("X", 0), "remove_value", 3) is Status.FAILED
        assert store.failed

    def test_unchanged_noop(self):
        store = small_store()
        assert store.tighten(("X", 0), "set_min", 0) is Status.UNCHANGED

    def test_remove_value_punches_hole(self):
        store = small_store()
        store.remove_value(("X", 0), 2)
        assert store.intervals(("X", 0)) == ((0, 1), (3, 5))


class TestTrail:
    def test_push_tighten_pop_restores(self):
        store = small_store()
        snap = store.snapshot()
        store.push_level()
        store.set_min(("X", 0), 2)
        store.assign(("Y", 2), 0)
        store.set_max(("C", 0), 17)
        store.pop_level()
        assert store.snapshot() == snap

    def test_nesting(self):
        store = small_store()
        snap0 = store.snapshot()
        store.push_level()
        store.set_min(("I", 1), 3)
        snap1 = store.snapshot()
        store.push_level()
        store.assign(("X", 2), 0)
        store.pop_level()
        assert store.snapshot() == snap1
        store.pop_level()
        assert store.snapshot() == snap0

    def test_pop_at_root_is_error(self):
        store = small_store()
        with pytest.raises(RuntimeError):
            store.pop_level()

    def test_failed_cleared_on_pop(self):
        store = small_store()
        store.push_level()
        store.assign(("X", 0), 99)
        assert store.failed
        store.pop_level()
        assert not store.failed

    def test_randomized_restoration(self):
        rng = random.Random(42)
        store = small_store()
        stack = []
        keys = [("X", 0), ("X", 1), ("I", 0), ("I", 2), ("Y", 1), ("C", 0)]
        for _ in range(5000):
            op = rng.random()
            if op < 0.25 and store.level < 12:
                stack.append(store.snapshot())
                store.push_level()
            elif op < 0.45 and stack:
                store.pop_level()
                assert store.snapshot() == stack.pop()
            else:
                key = rng.choice(keys)
                kind = rng.choice(["set_min", "set_max", "remove_value", "assign"])
                store.tighten(key, kind, rng.randint(-2, 12))
        while stack:
            store.pop_level()
            assert store.snapshot() == stack.pop()


class TestPlanEpoch:
    def test_moves_on_plan_changes_and_restoring_pops(self):
        store = small_store()
        epoch = store.plan_epoch
        store.set_max(("C", 0), store.max(("C", 0)) - 1)
        assert store.plan_epoch == epoch  # cost variables do not count
        store.push_level()
        store.set_min(("X", 0), 1)
        assert store.plan_epoch > epoch
        epoch = store.plan_epoch
        store.pop_level()
        assert store.plan_epoch > epoch  # the pop restored X_0
        epoch = store.plan_epoch
        store.push_level()
        store.set_max(("Cs", 0), store.max(("Cs", 0)) - 1)
        store.pop_level()
        assert store.plan_epoch > epoch  # a restoring pop counts, whatever it restored
        epoch = store.plan_epoch
        store.push_level()
        store.set_min(("X", 0), 0)
        store.pop_level()
        assert store.plan_epoch == epoch  # nothing to restore


class TestChanneling:
    """The setup link X_t <= cap * Y_t inside ``bc_feasibility``."""

    def test_y_zero_forces_no_production(self):
        store, inst = small_problem()
        store.assign(("Y", 1), 0)
        assert bc_feasibility(store, inst)[0] is Status.CHANGED
        assert store.intervals(("X", 1)) == ((0, 0),)
        assert store.intervals(("X", 0)) == ((5, 5),)  # period 0 now serves period 1

    def test_production_min_forces_setup(self):
        store, inst = small_problem()
        store.set_min(("X", 1), 3)
        assert store.max(("Y", 1)) == 1 and store.min(("Y", 1)) == 0
        assert bc_feasibility(store, inst)[0] is Status.CHANGED
        assert store.value(("Y", 1)) == 1

    def test_y_zero_without_zero_production_fails(self):
        store, inst = small_problem()
        store.set_min(("X", 0), 2)
        store.assign(("Y", 0), 0)
        assert bc_feasibility(store, inst)[0] is Status.FAILED
        assert store.failed

    def test_idempotent(self):
        store, inst = small_problem()
        store.set_min(("X", 1), 3)
        bc_feasibility(store, inst)
        before = store.mod_count
        assert bc_feasibility(store, inst)[0] is Status.UNCHANGED
        assert store.mod_count == before
