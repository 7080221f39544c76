"""Disjunctive domains and Q/R gap constraints via Sequence propagation."""

import copy
import random

import pytest

from lotsizing import (
    DisjunctiveSpec,
    DomainStore,
    QRSpec,
    SideSpecs,
    Status,
    apply_disjunctions,
    make_instance,
    post_qr,
    qr_satisfied,
    sequence_propagate,
)
from lotsizing.domains import iv_values, merge
from lotsizing.side_constraints import read_side_specs, write_side_specs


def wide_store(T=5, cap=300):
    inst = make_instance(d=[1] * T, p=[1] * T, h=[1] * T, s=[1] * T,
                         alpha_hi=[cap] * T, beta_hi=[cap] * T)
    return DomainStore.for_instance(inst)


class TestDisjunctions:
    def test_leveled_production_domains(self):
        store = wide_store(T=1, cap=240)
        spec = DisjunctiveSpec.uniform(1, ((100, 150), (200, 240), (0, 30)))
        assert apply_disjunctions(store, spec) is Status.CHANGED
        assert store.intervals(("X", 0)) == ((0, 30), (100, 150), (200, 240))

    def test_covering_interval_unchanged(self):
        store = wide_store(T=1, cap=240)
        spec = DisjunctiveSpec.uniform(1, ((0, 300),))
        assert apply_disjunctions(store, spec) is Status.UNCHANGED

    def test_empty_intersection_fails(self):
        store = wide_store(T=1, cap=240)
        store.set_min(("X", 0), 40)
        store.set_max(("X", 0), 90)
        spec = DisjunctiveSpec.uniform(1, ((100, 150), (200, 240), (0, 30)))
        assert apply_disjunctions(store, spec) is Status.FAILED

    @pytest.mark.parametrize("t", [-1, 3, 98])
    def test_period_outside_horizon_rejected(self, t):
        store = wide_store(T=3)
        before = store.snapshot()
        with pytest.raises(ValueError, match=f"period {t + 1},"):
            apply_disjunctions(store, DisjunctiveSpec(intervals={0: ((1, 2),), t: ((1, 2),)}))
        assert store.snapshot() == before


class TestSequence:
    def test_min_gap_blocks_in_between(self):
        store = wide_store(T=5)
        store.assign(("Y", 0), 1)
        store.assign(("Y", 3), 1)
        assert sequence_propagate(store, 5, 0, 1, 3) is Status.CHANGED
        assert store.value(("Y", 1)) == 0
        assert store.value(("Y", 2)) == 0

    def test_empty_window_fails(self):
        store = wide_store(T=7)
        for t in range(7):
            store.assign(("Y", t), 0)
        assert sequence_propagate(store, 7, 1, 7, 7) is Status.FAILED

    def test_horizon_shorter_than_window_unconstrained(self):
        store = wide_store(T=4)
        assert sequence_propagate(store, 4, 1, 7, 7) is Status.UNCHANGED

    def test_fixed_vectors_match_direct_check(self):
        T, Q, R = 7, 2, 3
        for bits in range(1 << T):
            y = [(bits >> t) & 1 for t in range(T)]
            store = wide_store(T=T)
            system = post_qr(T, Q, R)
            system.install(store)
            for t in range(T):
                store.assign(("Y", t), y[t])
            got = system.propagate(store)
            assert (got is not Status.FAILED) == qr_satisfied(y, Q, R)

    def test_gap_semantics(self):
        T, Q, R = 9, 2, 4
        for bits in range(1 << T):
            y = [(bits >> t) & 1 for t in range(T)]
            prod = [t for t in range(T) if y[t]]
            gaps_ok = all(Q + 1 <= b - a <= R + 1 for a, b in zip(prod, prod[1:]))
            edges_ok = bool(prod) and prod[0] <= R and prod[-1] >= T - 1 - R
            if not prod:
                edges_ok = T <= R
            assert qr_satisfied(y, Q, R) == (gaps_ok and edges_ok)

    def test_propagation_sound_on_partial_assignments(self):
        rng = random.Random(7)
        T, trials = 8, 200
        for _ in range(trials):
            Q = rng.randint(1, 3)
            R = rng.randint(Q, 5)
            store = wide_store(T=T)
            system = post_qr(T, Q, R)
            system.install(store)
            fixed = {}
            for t in range(T):
                if rng.random() < 0.4:
                    fixed[t] = rng.randint(0, 1)
                    store.assign(("Y", t), fixed[t])
            st = system.propagate(store)
            completions = []
            free = [t for t in range(T) if t not in fixed]
            for bits in range(1 << len(free)):
                y = [0] * T
                for t, v in fixed.items():
                    y[t] = v
                for k, t in enumerate(free):
                    y[t] = (bits >> k) & 1
                if qr_satisfied(y, Q, R):
                    completions.append(y)
            if st is Status.FAILED:
                assert not completions
                continue
            for t in range(T):
                dom = set(iv_values(store.intervals(("Y", t))))
                used = {y[t] for y in completions}
                assert used <= dom

    def test_qr_validation(self):
        try:
            QRSpec(3, 2).validate()
            raise AssertionError("expected rejection")
        except ValueError:
            pass


class _StoreLevelSequence:
    """``SequenceSystem.propagate`` as one store call per rule and period:
    the reference for the sweep on plain lists."""

    def __init__(self, system):
        self.T = system.T
        self.windows = system.windows

    def _channel(self, store, b):
        # N_{b+1} = N_b + Y_b
        st = Status.UNCHANGED
        nl, nh = store.min(("N", b)), store.max(("N", b))
        yl, yh = store.min(("Y", b)), store.max(("Y", b))
        st = merge(st, store.set_min(("N", b + 1), nl + yl))
        st = merge(st, store.set_max(("N", b + 1), nh + yh))
        if st is Status.FAILED:
            return st
        ml, mh = store.min(("N", b + 1)), store.max(("N", b + 1))
        st = merge(st, store.set_min(("N", b), ml - yh))
        st = merge(st, store.set_max(("N", b), mh - yl))
        if st is Status.FAILED:
            return st
        nl, nh = store.min(("N", b)), store.max(("N", b))
        st = merge(st, store.set_min(("Y", b), ml - nh))
        st = merge(st, store.set_max(("Y", b), mh - nl))
        return st

    def _window(self, store, a, k, l, u):
        # l <= N_{a+k} - N_a <= u
        st = Status.UNCHANGED
        al, ah = store.min(("N", a)), store.max(("N", a))
        bl, bh = store.min(("N", a + k)), store.max(("N", a + k))
        st = merge(st, store.set_min(("N", a + k), al + l))
        st = merge(st, store.set_max(("N", a + k), ah + u))
        if st is Status.FAILED:
            return st
        st = merge(st, store.set_min(("N", a), bl - u))
        st = merge(st, store.set_max(("N", a), bh - l))
        return st

    def propagate(self, store):
        overall = Status.UNCHANGED
        while True:
            before = store.mod_count
            for b in range(self.T):
                if self._channel(store, b) is Status.FAILED:
                    return Status.FAILED
            for l, u, k in self.windows:
                for a in range(0, self.T - k + 1):
                    if self._window(store, a, k, l, u) is Status.FAILED:
                        return Status.FAILED
            for b in range(self.T - 1, -1, -1):
                if self._channel(store, b) is Status.FAILED:
                    return Status.FAILED
            if store.mod_count == before:
                return overall
            overall = Status.CHANGED


class TestSequenceReference:
    """The sweep on plain lists against the store-level reference: the same
    domains, status and failed flag, and the same answer to "did anything
    change" through ``mod_count`` and ``plan_epoch``, which the search's
    fixpoint loop and the stage skipping read."""

    @pytest.mark.parametrize("qr", [(2, 6), (3, 7), (1, 1)])
    def test_matches_store_level_reference(self, qr):
        Q, R = qr
        rng = random.Random(100 * Q + R)
        outcomes = {st: 0 for st in Status}
        holed = 0
        for _ in range(400):
            T = rng.randint(1, 24)
            store = wide_store(T=T)
            system = post_qr(T, Q, R)
            system.install(store)
            for t in range(T):
                if rng.random() < 0.3:
                    store.assign(("Y", t), rng.randint(0, 1))
            for b in range(1, T + 1):
                roll = rng.random()
                if roll < 0.05:
                    store.set_min(("N", b), rng.randint(0, b // (Q + 1)))
                elif roll < 0.1:
                    store.set_max(("N", b), rng.randint(b // (R + 1), b))
                elif roll < 0.3:
                    store.remove_value(("N", b), rng.randint(0, b))
            if store.failed:
                continue
            holed += any(len(store.intervals(("N", b))) > 1 for b in range(T + 1))
            ref = copy.deepcopy(store)
            for _ in range(2):  # the second call starts from the first one's result
                marks = store.mod_count, store.plan_epoch, ref.mod_count, ref.plan_epoch
                want = _StoreLevelSequence(system).propagate(ref)
                got = system.propagate(store)
                assert got is want
                assert store.snapshot() == ref.snapshot()
                assert store.failed == ref.failed
                assert (store.mod_count > marks[0]) == (ref.mod_count > marks[2])
                assert (store.plan_epoch > marks[1]) == (ref.plan_epoch > marks[3])
                outcomes[got] += 1
        assert all(n >= 80 for n in outcomes.values()) and holed >= 200, (outcomes, holed)


class TestAlternation:
    def test_q1_r1_forces_alternating(self):
        T = 6
        store = wide_store(T=T)
        system = post_qr(T, 1, 1)
        system.install(store)
        store.assign(("Y", 0), 1)
        st = system.propagate(store)
        assert st is not Status.FAILED
        assert [store.value(("Y", t)) for t in range(T)] == [1, 0, 1, 0, 1, 0]


class TestSideSpecFiles:
    def test_round_trip(self, tmp_path):
        spec = SideSpecs(
            disjunction=DisjunctiveSpec.uniform(3, ((0, 30), (100, 150))),
            qr=QRSpec(2, 6),
        )
        path = tmp_path / "x.side"
        write_side_specs(spec, path)
        back = read_side_specs(path)
        assert back.qr == spec.qr
        assert back.disjunction.intervals == spec.disjunction.intervals

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.side"
        path.write_text("disj 1 nope 5\n")
        try:
            read_side_specs(path)
            raise AssertionError("expected parse error")
        except ValueError as exc:
            assert "bad.side:1" in str(exc)

    def test_empty_interval_round_trips_as_zero(self, tmp_path):
        """A period whose interval tuple is empty allows X = 0 only; it is
        written as ``disj t 0 0``, which reads back as the same domain."""
        spec = SideSpecs(disjunction=DisjunctiveSpec(intervals={0: ((5, 9),), 1: ()}))
        path = tmp_path / "x.side"
        write_side_specs(spec, path)
        back = read_side_specs(path).disjunction
        assert back.intervals == {0: ((5, 9),), 1: ((0, 0),)}
        for ivs in (spec.disjunction, back):
            store = DomainStore()
            for t in range(2):
                store.add_var(("X", t), 0, 20)
            apply_disjunctions(store, ivs)
            assert [store.intervals(("X", t)) for t in range(2)] == [((0, 0), (5, 9)), ((0, 0),)]

    @pytest.mark.parametrize("line, why", [("disj 2 50 10", "empty interval"), ("disj 2 -5 10", "start at 0")])
    def test_bad_interval_rejected(self, tmp_path, line, why):
        path = tmp_path / "bad.side"
        path.write_text(f"disj 1 5 9\n{line}\n")
        with pytest.raises(ValueError, match=f"bad.side:2: .*{why}"):
            read_side_specs(path)

    @pytest.mark.parametrize("t", ["0", "-3"])
    def test_period_below_one_rejected(self, tmp_path, t):
        path = tmp_path / "bad.side"
        path.write_text(f"qr 1 2\ndisj {t} 1 2\n")
        with pytest.raises(ValueError, match="bad.side:2: .*periods start at 1"):
            read_side_specs(path)
