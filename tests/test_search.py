"""Branch-and-bound search, oracle cross-checks, verifier."""

import dataclasses
import json
import random
from pathlib import Path

import pytest

import lotsizing.dp as dp_mod
from lotsizing import (
    INSTANCE_CLASSES,
    DisjunctiveSpec,
    PropagateResult,
    QRSpec,
    SearchConfig,
    SideSpecs,
    Solution,
    Status,
    brute_force_oracle,
    enumerate_plans,
    generate,
    make_instance,
    solve,
    validate_and_normalize,
    verify,
)
from lotsizing.search import _propagate_all, build_model
from conftest import rand_instance
from test_dp import two_period


def rand_side(rng, inst) -> SideSpecs | None:
    roll = rng.random()
    if roll < 0.5:
        return None
    if roll < 0.75:
        cap = max(inst.alpha_hi)
        a = rng.randint(0, 2)
        b = rng.randint(a, max(a, min(4, cap)))
        c = rng.randint(b + 2, max(b + 2, cap))
        return SideSpecs(disjunction=DisjunctiveSpec.uniform(inst.T, ((a, b), (c, c + 2))))
    q = rng.randint(1, 2)
    return SideSpecs(qr=QRSpec(q, rng.randint(q, q + 3)))


class TestSolve:
    @pytest.mark.parametrize("field, value", [("filter_mode", "dpp"), ("filter_mode", "dp"), ("branching", "peaks")])
    def test_unknown_option_value_rejected(self, field, value):
        config = SearchConfig(**{field: value})
        with pytest.raises(ValueError, match=f"unknown {field} '{value}'"):
            solve(two_period(), None, config)

    def test_given_optimal_bound(self):
        sol, stats = solve(two_period(), None, SearchConfig(ub=13))
        assert stats.status == "OPT"
        assert sol.c == 13 and sol.x == (5, 0)
        assert stats.nodes <= 4

    def test_infeasible_at_root(self):
        inst = make_instance(d=[9], p=[1], h=[1], s=[1], alpha_hi=[5], beta_hi=[5])
        sol, stats = solve(inst)
        assert sol is None and stats.status == "INFEASIBLE"
        assert stats.nodes == 1

    def test_bound_below_optimum_infeasible(self):
        sol, stats = solve(two_period(), None, SearchConfig(ub=12))
        assert sol is None and stats.status == "INFEASIBLE"

    def test_discover_matches_oracle_with_side_constraints(self):
        rng = random.Random(303)
        agreements = 0
        for _ in range(120):
            inst = validate_and_normalize(rand_instance(rng, max_T=5, max_d=5, max_cap=7))
            side = rand_side(rng, inst)
            want = brute_force_oracle(inst, side)
            got, stats = solve(inst, side)
            if want is None:
                assert got is None and stats.status == "INFEASIBLE"
            else:
                assert got is not None, f"solver missed feasible {inst} {side}"
                assert got.c == want.c, f"{inst} {side}: {got.c} != {want.c}"
                assert verify(inst, side, got)[0]
            agreements += 1
        assert agreements == 120

    def test_optimal_given_ub_still_finds_solution(self):
        rng = random.Random(307)
        for _ in range(60):
            inst = validate_and_normalize(rand_instance(rng, max_T=5, max_d=4, max_cap=6))
            want = brute_force_oracle(inst)
            if want is None:
                continue
            got, stats = solve(inst, None, SearchConfig(ub=want.c))
            assert got is not None and got.c == want.c
            assert stats.status == "OPT"

    def test_node_limit_reports_timeout(self):
        # Holding is dearer than a setup, so the DP plan sets up in every
        # period; Q = 1 forbids setups in consecutive periods, so that plan
        # fails verify() and the root cannot close.
        inst = validate_and_normalize(
            make_instance(d=[3] * 6, p=[1] * 6, h=[5] * 6, s=[4] * 6,
                          alpha_hi=[8] * 6, beta_hi=[8] * 6)
        )
        side = SideSpecs(qr=QRSpec(1, 3))
        _, stats = solve(inst, side, SearchConfig(node_limit=1))
        assert stats.status == "TIMEOUT"
        assert stats.stop_reason == "node_limit"

    def test_stop_reason_separates_limits_from_proofs(self):
        inst = validate_and_normalize(
            make_instance(d=[3] * 6, p=[1] * 6, h=[5] * 6, s=[4] * 6,
                          alpha_hi=[8] * 6, beta_hi=[8] * 6)
        )
        side = SideSpecs(qr=QRSpec(1, 3))
        opt = brute_force_oracle(inst, side).c
        for config, status, reason in (
            (SearchConfig(time_limit=0), "TIMEOUT", "time_limit"),
            (SearchConfig(ub=opt), "OPT", "bound_met"),
            (SearchConfig(), "OPT", "exhausted"),
            (SearchConfig(ub=opt - 1), "INFEASIBLE", "exhausted"),
        ):
            _, stats = solve(inst, side, config)
            assert (stats.status, stats.stop_reason) == (status, reason), config

    def test_peak_branching_orders_by_demand(self):
        inst = validate_and_normalize(
            make_instance(d=[1, 9, 1, 6], p=[1] * 4, h=[1] * 4, s=[3] * 4,
                          alpha_hi=[9] * 4, beta_hi=[9] * 4)
        )
        want = brute_force_oracle(inst)
        got, _ = solve(inst, None, SearchConfig(branching="peak"))
        assert got.c == want.c

    def test_qr_infeasible_by_spacing(self):
        # Demands at every third period, no carrying capacity: productions are
        # forced exactly 3 apart, so a minimum gap of 5 (Q=4) is impossible.
        inst = make_instance(
            d=[1, 0, 0, 1, 0, 0, 1, 0, 0, 1],
            p=[1] * 10, h=[1] * 10, s=[1] * 10,
            alpha_hi=[1] * 10, beta_hi=[0] * 10,
        )
        side = SideSpecs(qr=QRSpec(4, 8))
        assert brute_force_oracle(inst, side) is None
        sol, stats = solve(inst, side)
        assert sol is None and stats.status == "INFEASIBLE"


class TestProductionFallback:
    def test_split_by_halves_on_a_wide_domain(self, monkeypatch):
        """With the DP off (no table fits) the flow plan X_0 = 2000 lands in
        the hole 1991..2009 and every setup is fixed, so the search splits
        X_0. One value per level would recurse once per value of its 4,000;
        halves recurse once per bit."""
        inst = validate_and_normalize(make_instance(
            d=[0, 2000, 1000], p=[1, 100, 2], h=[1, 1, 1], s=[0, 0, 0],
            alpha_lo=[1, 0, 1], alpha_hi=[4000] * 3, beta_hi=[4000] * 3,
        ))
        side = SideSpecs(disjunction=DisjunctiveSpec({0: ((1, 1990), (2010, 4000))}))
        want, _ = solve(inst, side)
        monkeypatch.setattr(dp_mod, "_TABLE_CAP", 0)
        sol, stats = solve(inst, side)
        assert stats.status == "OPT" and sol.c == want.c == 6010
        assert sol.x == want.x == (2010, 0, 990)
        assert verify(inst, side, sol)[0]


_REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


class TestReferenceOptima:
    @pytest.mark.parametrize("cls", sorted(json.loads(_REFERENCES.read_text(encoding="ascii"))["optima"]))
    def test_seed_2_matches_the_stored_optimum(self, cls):
        """Seed 2 of every class with a stored HiGHS optimum. LS, Disj and QR
        discover it with lex branching; Peaks is handed it and branches on
        peaks first, the paper's protocol for those classes."""
        ref = json.loads(_REFERENCES.read_text(encoding="ascii"))["optima"][cls]["2"]
        template = INSTANCE_CLASSES[cls]
        params = dataclasses.replace(template.params, seed=2)
        inst = validate_and_normalize(generate(params))
        side = None
        if template.disjunction or template.qr:
            side = SideSpecs(
                disjunction=DisjunctiveSpec.uniform(params.T, template.disjunction) if template.disjunction else None,
                qr=QRSpec(*template.qr) if template.qr else None,
            )
        peaks = bool(params.peak_periods)
        config = SearchConfig(ub=ref, branching="peak") if peaks else SearchConfig()
        sol, stats = solve(inst, side, config)
        assert stats.status == "OPT" and stats.best_cost == sol.c == ref
        assert verify(inst, side, sol)[0]
        assert stats.root_lb <= ref


def fuzz_instance(rng):
    """T = 3..6 with capacities that leave room for Q/R spacing."""
    T = rng.randint(3, 6)
    return validate_and_normalize(make_instance(
        d=[rng.randint(0, 4) for _ in range(T)],
        p=[rng.randint(0, 3) for _ in range(T)],
        h=[rng.randint(0, 4) for _ in range(T)],
        s=[rng.randint(0, 8) for _ in range(T)],
        alpha_lo=[1 if rng.random() < 0.1 else 0 for _ in range(T)],
        alpha_hi=[rng.randint(3, 6) for _ in range(T)],
        beta_lo=[1 if rng.random() < 0.1 else 0 for _ in range(T)],
        beta_hi=[rng.randint(2, 6) for _ in range(T)],
    ))


def fuzz_side(rng, inst) -> SideSpecs | None:
    """No side constraint, disjunction holes, Q/R, or both."""
    cap = max(inst.alpha_hi)
    a = rng.randint(0, 1)
    b = rng.randint(a, max(a, min(2, cap)))
    disj = DisjunctiveSpec.uniform(inst.T, ((a, b), (b + 2, b + 4)))
    q = rng.randint(1, 2)
    qr = QRSpec(q, rng.randint(q, q + 3))
    roll = rng.random()
    if roll < 0.2:
        return None
    if roll < 0.45:
        return SideSpecs(disjunction=disj)
    if roll < 0.8:
        return SideSpecs(qr=qr)
    return SideSpecs(disjunction=disj, qr=qr)


class TestDpIncumbentFuzz:
    """The DP's argmin plan becomes the incumbent only through verify(), and
    a node closes only on a plan that meets its bound. Q/R is not in the
    DP, so instances whose plan without Q/R is cheaper must not close on
    the DP plan."""

    def test_solve_matches_oracle_in_both_protocols(self):
        rng = random.Random(20261019)
        qr_binding = 0
        for _ in range(300):
            inst = fuzz_instance(rng)
            side = fuzz_side(rng, inst)
            want = brute_force_oracle(inst, side)
            if want is not None and side is not None and side.qr is not None:
                relaxed = brute_force_oracle(inst, SideSpecs(disjunction=side.disjunction))
                qr_binding += relaxed.c < want.c
            runs = [(None, solve(inst, side))]
            if want is not None:
                runs += [(ub, solve(inst, side, SearchConfig(ub=ub))) for ub in (want.c, want.c - 1)]
            for ub, (got, stats) in runs:
                if want is None or (ub is not None and ub < want.c):
                    assert got is None and stats.status == "INFEASIBLE", (inst, side, ub)
                    continue
                assert got is not None and verify(inst, side, got) == (True, None), (inst, side, ub)
                assert got.c == want.c and stats.status == "OPT", (inst, side, ub, got.c, want.c)
        assert qr_binding >= 20, qr_binding

    def test_node_closes_only_at_the_node_optimum(self):
        """Random setups fixed at the root, with and without the node's
        optimal cost as the bound: a closed node returns a valid plan that
        costs the node optimum, and a failed one has no plan within the bound."""
        rng = random.Random(20261020)
        closed = 0
        for _ in range(300):
            inst = fuzz_instance(rng)
            side = fuzz_side(rng, inst)
            fixed = {t: rng.randint(0, 1) for t in range(inst.T) if rng.random() < 0.4}
            node_plans = [
                sol for sol in enumerate_plans(inst, side, include_idle_setups=True)
                if all(sol.y[t] == v for t, v in fixed.items())
            ]
            node_opt = min((sol.c for sol in node_plans), default=None)
            for given in (False, True):
                store, ls, seq, root_ok = build_model(inst, side, SearchConfig())
                if not root_ok:
                    assert node_opt is None
                    continue
                ls.offer = lambda plan: verify(inst, side, plan)[0]
                if any(store.assign(("Y", t), v) is Status.FAILED for t, v in fixed.items()):
                    assert node_opt is None
                    continue
                if given and node_opt is not None:
                    store.set_max(("C", 0), node_opt)
                res, sol = _propagate_all(store, ls, seq, side)
                if res is PropagateResult.FAILED:
                    assert node_opt is None, (inst, side, fixed, given)
                elif res in (PropagateResult.CLOSED, PropagateResult.COMPLETED):
                    assert verify(inst, side, sol) == (True, None), (inst, side, fixed, given)
                    assert all(sol.y[t] == v for t, v in fixed.items())
                    assert sol.c == node_opt, (inst, side, fixed, given, sol.c, node_opt)
                    closed += res is PropagateResult.CLOSED
        assert closed >= 100, closed


class TestOracle:
    def test_hand_checked(self):
        best = brute_force_oracle(two_period())
        assert best.c == 13 and best.x == (5, 0)

    def test_zero_demand(self):
        inst = make_instance(d=[0, 0], p=[1, 1], h=[1, 1], s=[1, 1], alpha_hi=[3, 3], beta_hi=[3, 3])
        best = brute_force_oracle(inst)
        assert best.c == 0 and best.x == (0, 0)

    def test_refuses_oversized(self):
        inst = make_instance(d=[1] * 12, p=[1] * 12, h=[1] * 12, s=[1] * 12,
                             alpha_hi=[500] * 12, beta_hi=[500] * 12)
        try:
            brute_force_oracle(inst, size_cap=10**6)
            raise AssertionError("expected refusal")
        except ValueError:
            pass


class TestVerify:
    def test_solver_output_valid(self):
        rng = random.Random(311)
        for _ in range(40):
            inst = validate_and_normalize(rand_instance(rng, max_T=4, max_d=4, max_cap=6))
            sol, stats = solve(inst)
            if sol is not None:
                assert verify(inst, None, sol) == (True, None)

    def test_tampered_plan_detected(self):
        sol, _ = solve(two_period())
        assert sol.x == (5, 0)
        bad = Solution(x=(4, sol.x[1]), i=sol.i, y=sol.y,
                       cp=sol.cp, ch=sol.ch, cs=sol.cs, c=sol.c)
        ok, reason = verify(two_period(), None, bad)
        assert not ok and "flow balance at t=1" in reason

    def test_wrong_cost_detected(self):
        sol, _ = solve(two_period())
        bad = Solution(x=sol.x, i=sol.i, y=sol.y, cp=sol.cp, ch=sol.ch, cs=sol.cs, c=sol.c + 1)
        ok, reason = verify(two_period(), None, bad)
        assert not ok and "cost mismatch" in reason
