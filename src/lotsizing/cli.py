"""Command-line front end.

Subcommands: ``generate`` benchmark instance suites, ``solve`` one instance,
``verify`` a solution file, ``bench`` a directory of instances into a
NODE/CPU/RNB/OPT table, and ``export-lp`` the aggregated MILP for external
cross-checking. Exit codes for ``solve``: 0 optimal, 1 timeout, 2 infeasible.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .instance import (
    INSTANCE_CLASSES,
    GeneratorParams,
    Instance,
    generate,
    read_instance,
    validate_and_normalize,
    write_instance,
)
from .propagator import FILTER_MODES
from .search import BRANCHINGS, SearchConfig, SearchStats, solve, verify
from .side_constraints import DisjunctiveSpec, QRSpec, SideSpecs, read_side_specs, write_side_specs
from .solution import Solution


def _write_solution(sol: Solution, path: Path) -> None:
    lines = [f"T {len(sol.x)}"]
    for t in range(len(sol.x)):
        lines.append(f"{t + 1} {sol.x[t]} {sol.i[t]} {sol.y[t]}")
    for name, val in (("cp", sol.cp), ("ch", sol.ch), ("cs", sol.cs), ("c", sol.c)):
        lines.append(f"{name} {val}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


_SCALARS = ("T", "cp", "ch", "cs", "c")
_PLAN_FIELDS = ("t", "x", "i", "y")


def _read_solution(path: Path) -> Solution:
    x, i, y = [], [], []
    scalars = {}
    for lineno, raw in enumerate(path.read_text(encoding="ascii").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        scalar = parts[0] in _SCALARS
        names, toks = ((parts[0],), parts[1:]) if scalar else (_PLAN_FIELDS, parts)
        if len(toks) != len(names):
            shape = f"{parts[0]} <int>" if scalar else " ".join(_PLAN_FIELDS)
            raise ValueError(f"{path}:{lineno}: expected '{shape}', got {raw!r}")
        vals = []
        for name, tok in zip(names, toks):
            try:
                vals.append(int(tok))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: field {name}: invalid integer {tok!r}") from None
        if scalar:
            scalars[parts[0]] = vals[0]
        else:
            x.append(vals[1])
            i.append(vals[2])
            y.append(vals[3])
    if set(scalars) != set(_SCALARS) or len(x) != scalars["T"]:
        raise ValueError(f"{path}: incomplete solution file")
    return Solution(
        x=tuple(x), i=tuple(i), y=tuple(y), cp=scalars["cp"], ch=scalars["ch"], cs=scalars["cs"], c=scalars["c"]
    )


def cmd_generate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.cls:
        if args.cls not in INSTANCE_CLASSES:
            print(f"unknown class {args.cls!r}; known: {', '.join(sorted(INSTANCE_CLASSES))}", file=sys.stderr)
            return 2
        template = INSTANCE_CLASSES[args.cls]
        base_params = template.params
        side = SideSpecs(
            disjunction=DisjunctiveSpec.uniform(base_params.T, template.disjunction)
            if template.disjunction
            else None,
            qr=QRSpec(*template.qr) if template.qr else None,
        )
        name = args.cls
        peak_first = bool(base_params.peak_periods)
    else:
        base_params = GeneratorParams(
            d_avg=args.d_avg,
            delta=args.delta,
            theta_lo=args.theta_lo,
            theta_hi=args.theta_hi,
            e=args.e,
            lam=args.lam,
            T=args.T,
        )
        side = SideSpecs()
        name = "custom"
        peak_first = False
    files = []
    for k in range(args.count):
        inst = generate(replace(base_params, seed=args.seed + k))
        fname = f"{name}_{k:02d}.txt"
        write_instance(inst, out / fname)
        files.append(fname)
    side_file = None
    if side.disjunction is not None or side.qr is not None:
        side_file = f"{name}.side"
        write_side_specs(side, out / side_file)
    manifest = {
        "class": name,
        "seed": args.seed,
        "count": args.count,
        "files": files,
        "side_spec": side_file,
        "branching": "peak" if peak_first else "lex",
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="ascii")
    print(f"wrote {len(files)} instances to {out}")
    return 0


def _load_problem(instance_path: str, side_path: str | None) -> tuple[Instance, SideSpecs | None]:
    inst = validate_and_normalize(read_instance(instance_path))
    side = read_side_specs(side_path) if side_path else None
    return inst, side


def _print_run(sol: Solution | None, stats: SearchStats, machine: bool) -> None:
    if machine:
        print(
            json.dumps(
                {
                    "nodes": stats.nodes,
                    "cpu_s": round(stats.cpu_s, 4),
                    "root_lb": stats.root_lb,
                    "best_cost": stats.best_cost,
                    "status": stats.status,
                    "stop_reason": stats.stop_reason,
                }
            )
        )
        return
    print(f"status    {stats.status}")
    print(f"nodes     {stats.nodes}")
    print(f"cpu_s     {stats.cpu_s:.3f}")
    print(f"root_lb   {stats.root_lb}")
    if sol is not None:
        print(f"cost      C={sol.c} (Cp={sol.cp} Ch={sol.ch} Cs={sol.cs})")
        print("plan      t: X I Y")
        for t in range(len(sol.x)):
            print(f"  {t + 1}: {sol.x[t]} {sol.i[t]} {sol.y[t]}")


def cmd_solve(args) -> int:
    inst, side = _load_problem(args.instance, args.side_spec)
    ub = None if args.ub in (None, "discover") else int(args.ub)
    config = SearchConfig(
        ub=ub,
        branching=args.branching,
        time_limit=args.time_limit,
        node_limit=args.node_limit,
        filter_mode=args.filter,
    )
    sol, stats = solve(inst, side, config)
    _print_run(sol, stats, args.stats == "machine")
    if sol is not None and args.out_solution:
        _write_solution(sol, Path(args.out_solution))
    return {"OPT": 0, "TIMEOUT": 1, "INFEASIBLE": 2}[stats.status]


def cmd_verify(args) -> int:
    inst, side = _load_problem(args.instance, args.side_spec)
    sol = _read_solution(Path(args.solution))
    ok, reason = verify(inst, side, sol)
    if ok:
        print(f"VALID C={sol.c}")
        return 0
    print(f"INVALID: {reason}")
    return 2


@dataclass
class BenchReport:
    """Per-class aggregation mirroring the usual NODE/CPU/RNB/OPT columns."""

    cls: str
    rows: list[tuple[str, SearchStats]]

    @property
    def node_mean(self) -> float:
        return sum(s.nodes for _, s in self.rows) / max(len(self.rows), 1)

    @property
    def cpu_mean(self) -> float:
        return sum(s.cpu_s for _, s in self.rows) / max(len(self.rows), 1)

    @property
    def rnb_mean(self) -> float:
        gaps = [s.root_gap() for _, s in self.rows if s.status == "OPT" and s.root_gap() is not None]
        return 100 * sum(gaps) / len(gaps) if gaps else float("nan")

    @property
    def opt_count(self) -> int:
        return sum(1 for _, s in self.rows if s.status == "OPT")

    def render(self) -> str:
        lines = [
            f"class {self.cls}: {len(self.rows)} instances",
            f"{'instance':<20} {'NODE':>8} {'CPU':>8} {'RNB%':>7} {'COST':>10} {'STATUS':>10}",
        ]
        for name, s in self.rows:
            gap = s.root_gap()
            lines.append(
                f"{name:<20} {s.nodes:>8} {s.cpu_s:>8.2f} "
                f"{(100 * gap if gap is not None else float('nan')):>7.2f} "
                f"{s.best_cost if s.best_cost is not None else '-':>10} {s.status:>10}"
            )
        lines.append(
            f"{'MEAN':<20} {self.node_mean:>8.1f} {self.cpu_mean:>8.2f} {self.rnb_mean:>7.2f} "
            f"{'OPT=' + str(self.opt_count):>10} {'':>10}"
        )
        return "\n".join(lines) + "\n"


def cmd_bench(args) -> int:
    d = Path(args.dir)
    manifest_path = d / "manifest.json"
    side = None
    branching = "lex"
    cls_name = d.name
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        files = [d / f for f in manifest["files"]]
        if manifest.get("side_spec"):
            side = read_side_specs(d / manifest["side_spec"])
        branching = manifest.get("branching", "lex")
        cls_name = manifest.get("class", cls_name)
    else:
        files = sorted(d.glob("*.txt"))
    rows = []
    for f in files:
        inst = validate_and_normalize(read_instance(f))
        base = SearchConfig(branching=branching, time_limit=args.time_limit, filter_mode=args.filter)
        _, stats = solve(inst, side, base)
        if args.given_ub and stats.status == "OPT":
            # Paper protocol: find the optimum first, then measure the run
            # that is handed the optimal upper bound. A discover run that
            # proved nothing (infeasible, or stopped with an unproven
            # incumbent) is the row itself.
            _, stats = solve(inst, side, replace(base, ub=stats.best_cost))
        rows.append((f.name, stats))
    report = BenchReport(cls=cls_name, rows=rows).render()
    print(report, end="")
    if args.report:
        Path(args.report).write_text(report, encoding="ascii")
    return 0


def write_lp(inst: Instance, path: Path) -> None:
    """Aggregated MILP in CPLEX LP text format (export only)."""
    obj_terms = []
    for t in range(inst.T):
        if inst.p[t]:
            obj_terms.append(f"+ {inst.p[t]} X{t + 1}")
        if inst.h[t]:
            obj_terms.append(f"+ {inst.h[t]} I{t + 1}")
        if inst.s[t]:
            obj_terms.append(f"+ {inst.s[t]} Y{t + 1}")
    lines = ["\\ capacitated single-item lot-sizing (aggregated model)", "Minimize"]
    lines.append(" obj: " + (" ".join(obj_terms) if obj_terms else "0 Y1"))
    lines.append("Subject To")
    for t in range(inst.T):
        prev = f"I{t} + " if t > 0 else ""
        lines.append(f" bal{t + 1}: {prev}X{t + 1} - I{t + 1} = {inst.d[t]}")
    for t in range(inst.T):
        lines.append(f" setup{t + 1}: X{t + 1} - {inst.alpha_hi[t]} Y{t + 1} <= 0")
    lines.append("Bounds")
    for t in range(inst.T):
        lines.append(f" {inst.alpha_lo[t]} <= X{t + 1} <= {inst.alpha_hi[t]}")
        lines.append(f" {inst.beta_lo[t]} <= I{t + 1} <= {inst.beta_hi[t]}")
    lines.append("Binaries")
    lines.append(" " + " ".join(f"Y{t + 1}" for t in range(inst.T)))
    lines.append("End")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def cmd_export_lp(args) -> int:
    inst = read_instance(args.instance)
    write_lp(inst, Path(args.out))
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lotsizing", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate benchmark instances")
    g.add_argument("--cls", "--class", dest="cls", help="named class, e.g. C1LS, C3Disj, C2QR")
    g.add_argument("--d-avg", type=int, default=100)
    g.add_argument("--delta", type=int, default=10)
    g.add_argument("--theta-lo", type=float, default=0.5)
    g.add_argument("--theta-hi", type=float, default=0.5)
    g.add_argument("--e", type=int, default=10)
    g.add_argument("--lam", type=float, default=3.0)
    g.add_argument("--T", type=int, default=40)
    g.add_argument("--count", type=int, default=10)
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve one instance")
    s.add_argument("--instance", required=True)
    s.add_argument("--side-spec")
    s.add_argument("--ub", default="discover", help="integer upper bound or 'discover'")
    s.add_argument("--filter", choices=FILTER_MODES, default="auto")
    s.add_argument("--branching", choices=BRANCHINGS, default="lex")
    s.add_argument("--time-limit", type=float)
    s.add_argument("--node-limit", type=int)
    s.add_argument("--stats", choices=("text", "machine"), default="text")
    s.add_argument("--out-solution")
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="verify a solution file")
    v.add_argument("--instance", required=True)
    v.add_argument("--solution", required=True)
    v.add_argument("--side-spec")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="solve a directory of instances and tabulate")
    b.add_argument("--dir", required=True)
    b.add_argument("--report")
    b.add_argument("--given-ub", action="store_true", help="measure runs given the optimal upper bound")
    b.add_argument("--time-limit", type=float, default=200.0)
    b.add_argument("--filter", choices=FILTER_MODES, default="auto")
    b.set_defaults(func=cmd_bench)

    e = sub.add_parser("export-lp", help="write the aggregated MILP as an .lp file")
    e.add_argument("--instance", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_export_lp)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
