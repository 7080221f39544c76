"""Solver benchmark: one process, one thread, seeded workloads.

    python3 perfbench/run.py --workload side-given --seed 1 --seconds 35 --trace 0

Builds the run's instances from the class registry and sets up (imports,
generation, references, one untimed warm-up solve). It then solves every
instance once, the first pass, and keeps re-solving them in the same order
while the next solve fits in ``--seconds``, at least one more. Every result
is checked against the stored HiGHS optimum and by an independent plan
checker, and every re-solve must repeat the instance's stop, nodes, root
bound and cost exactly. ``--trace 1`` traces the first pass and reports
per-layer numbers instead of the end-to-end ones; its re-solves come in
traced/untraced pairs that give the tracing overhead. The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description="lot-sizing solver benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _classify(stats, cap: int) -> str:
    # SearchStats reports a node limit as TIMEOUT; the benchmark sets no time
    # limit, so a stop past the cap is the node cap.
    if stats.status == "TIMEOUT" and stats.nodes > cap:
        return "node_cap"
    return stats.status.lower()


def _signature(row) -> tuple:
    _, stats, _, stop = row
    return stop, stats.nodes, stats.root_lb, stats.best_cost


def _check(problem, ref, row, check_plan) -> list[str]:
    """Ways in which one result contradicts the reference or is invalid."""
    _, stats, sol, stop = row
    errs = []
    if stop == "opt" and (sol is None or stats.best_cost != ref):
        errs.append(f"OPT with cost {stats.best_cost}, reference {ref}")
    if stop == "infeasible":
        errs.append(f"INFEASIBLE, reference optimum {ref}")
    if stop not in ("opt", "node_cap", "infeasible"):
        errs.append(f"unexpected stop {stats.status}")
    if sol is not None:
        if sol.c < ref:
            errs.append(f"plan cost {sol.c} below the reference {ref}")
        errs += check_plan(problem.inst, problem.side, sol)
    if stats.root_lb is None or stats.root_lb > ref:
        errs.append(f"root bound {stats.root_lb} vs reference {ref}")
    return errs


def main(argv=None) -> int:
    args = _parse(argv)
    t_import = time.perf_counter()
    if not (ROOT / "src" / "lotsizing" / "__init__.py").is_file():
        print(f"no solver sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from layertrace import Tracer, layer_metrics, layer_self_shares
    from lotsizing import SearchConfig, solve
    from plancheck import check_plan
    from problems import make_problem
    from workloads import WORKLOADS, choose_problems, load_references, pool

    import_s = time.perf_counter() - t_import
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    def config(problem, refs, node_cap):
        ub = refs[problem.cls][problem.seed] if wl.given_ub else None
        return SearchConfig(ub=ub, branching=problem.branching, node_limit=node_cap)

    # Set-up, repeated so its median is steady. The warm-up solve pays the
    # cold-start cost the timed solves must not; it stops after the root node
    # of a fixed instance, so its cost does not depend on the run seed.
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        refs = load_references()
        problems = choose_problems(wl, args.seed, refs)
        warm = make_problem(wl.classes[0], pool(refs, wl.classes[0], 1)[0])
        solve(warm.inst, warm.side, config(warm, refs, 1))
        setup_runs.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_runs)

    n = len(problems)
    configs = [config(p, refs, wl.node_cap) for p in problems]

    def run_one(k, tracer):
        problem = problems[k]
        t0 = time.perf_counter()
        if tracer is None:
            sol, stats = solve(problem.inst, problem.side, configs[k])
        else:
            tracer.instance = problem.key
            tracer.install()
            try:
                sol, stats = tracer.span("search.solve", solve, (problem.inst, problem.side, configs[k]))
            finally:
                tracer.uninstall()
        return time.perf_counter() - t0, stats, sol, _classify(stats, wl.node_cap)

    # Rows are (seconds, stats, sol, stop). A traced run traces the first
    # pass for the layer numbers; each later visit then solves the instance
    # twice back to back, untraced and traced in alternating order, so the
    # overhead compares solves made under the same machine load.
    tracer = Tracer() if args.trace else None
    overhead_tracer = Tracer() if args.trace else None
    t_start = time.perf_counter()
    first = [run_one(k, tracer) for k in range(n)]
    repeats = [[] for _ in problems]  # untraced re-solves
    traced_repeats = [[] for _ in problems]
    visit = n
    while True:
        k = visit % n
        if tracer is None:
            repeats[k].append(run_one(k, None))
        else:
            for traced in (False, True) if (visit // n) % 2 else (True, False):
                (traced_repeats if traced else repeats)[k].append(run_one(k, overhead_tracer if traced else None))
            overhead_tracer.spans.clear()
        visit += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / visit > args.seconds:
            break
    done = n + sum(len(r) for r in repeats) + sum(len(r) for r in traced_repeats)

    failures = []  # (instance, reason), one per failed solve
    for k, problem in enumerate(problems):
        ref = refs[problem.cls][problem.seed]
        for j, row in enumerate([first[k]] + repeats[k] + traced_repeats[k]):
            errs = _check(problem, ref, row, check_plan)
            if j and _signature(row) != _signature(first[k]):
                errs.append(f"re-solve gave {_signature(row)}, first solve {_signature(first[k])}")
            if errs:
                failures.append((problem.key, "; ".join(errs)))
    wrong = {key for key, _ in failures}

    for problem, (sec, stats, _, stop) in zip(problems, first):
        row = {
            "instance": problem.key,
            "stop": stop,
            "nodes": stats.nodes,
            "root_lb": stats.root_lb,
            "cost": stats.best_cost,
            "reference": refs[problem.cls][problem.seed],
            "s": round(sec, 4),
        }
        print("row " + json.dumps(row))
    for key, err in failures:
        print(f"FAIL {key}: {err}")

    solved = sum(1 for r in first if r[3] == "opt")
    print(f"env python {platform.python_version()}, numpy {numpy.__version__}, cpus {os.cpu_count()}")
    print(f"solves {done}: {n} instances, {done - n} re-solves")
    print(f"solved_frac {solved / n:.4f} (proven optimal within the node cap of {wl.node_cap})")
    print(f"wrong_frac {len(wrong) / n:.4f}")

    if tracer is None:
        per_instance = [statistics.median([first[k][0]] + [r[0] for r in repeats[k]]) for k in range(n)]
        # The typical solve is printed for reading only: between runs on a
        # shared machine it spreads too widely to gate on (see NOTES.md).
        print(f"solve_s.p50 {statistics.median(per_instance):.6g} s over {n} instances")
        metrics = {
            "run_s": (sum(per_instance), "s"),
            "nodes_mean": (statistics.mean(r[1].nodes for r in first), "count"),
            "root_bound_pct": (
                statistics.mean(100.0 * (r[1].root_lb or 0) / refs[p.cls][p.seed] for p, r in zip(problems, first)),
                "%",
            ),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = {k: (v, _layer_unit(k)) for k, v in layer_metrics(tracer.spans, [r[1] for r in first]).items()}
        both = [k for k in range(n) if traced_repeats[k]]
        traced_s = sum(statistics.median(r[0] for r in traced_repeats[k]) for k in both)
        untraced_s = sum(statistics.median(r[0] for r in repeats[k]) for k in both)
        metrics["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
        for layer, share in layer_self_shares(tracer.spans).items():
            print(f"self_share {layer} {100 * share:.1f} %")
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-{args.seed}.jsonl")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    result = {
        "correct": not failures,
        "attempted": done,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ratio") or name.endswith("passes_per_propagate"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
