"""Command-line interface: generation suites, solve/verify, bench, LP export."""

import json

import pytest

import lotsizing.cli as cli
from lotsizing import SearchStats, read_instance
from lotsizing.cli import main


def run(*argv) -> int:
    return main(list(argv))


def write_two_period(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text(
        "T 2\n"
        "1 2 1 1 5 0 5 0 10\n"
        "2 3 2 1 4 0 5 0 10\n"
    )
    return path


class TestGenerate:
    def test_named_class_suite(self, tmp_path, capsys):
        out = tmp_path / "c1ls"
        assert run("generate", "--cls", "C1LS", "--count", "3", "--seed", "7", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["class"] == "C1LS" and len(manifest["files"]) == 3
        inst = read_instance(out / manifest["files"][0])
        assert inst.T == 40 and all(h == 1 for h in inst.h)

    def test_disj_class_writes_side_spec(self, tmp_path):
        out = tmp_path / "c1disj"
        assert run("generate", "--cls", "C1Disj", "--count", "1", "--seed", "1", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        side_text = (out / manifest["side_spec"]).read_text()
        assert "disj 1 0 30" in side_text and "disj 1 200 240" in side_text

    def test_deterministic_per_seed(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run("generate", "--cls", "C5LS", "--count", "2", "--seed", "11", "--out", str(out)) == 0
        for name in json.loads((out1 / "manifest.json").read_text())["files"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_unknown_class(self, tmp_path):
        assert run("generate", "--cls", "C99LS", "--out", str(tmp_path / "x")) == 2

    def test_peak_class_is_feasible(self, tmp_path):
        from lotsizing import validate_and_normalize

        out = tmp_path / "peaks"
        assert run("generate", "--cls", "C1Peaks", "--count", "1", "--seed", "6", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["branching"] == "peak"
        inst = read_instance(out / manifest["files"][0])
        assert max(inst.d) == 50_000
        assert inst.alpha_hi[0] > 4 * 100  # capacities follow the raised mean
        assert validate_and_normalize(inst) == inst  # feasible, nothing forced


class TestSolve:
    def test_optimal_with_given_ub(self, tmp_path, capsys):
        inst = write_two_period(tmp_path)
        code = run("solve", "--instance", str(inst), "--ub", "13", "--stats", "machine")
        record = json.loads(capsys.readouterr().out.strip())
        assert code == 0
        assert record["status"] == "OPT" and record["best_cost"] == 13
        assert record["stop_reason"] == "bound_met"

    def test_bound_below_optimum(self, tmp_path, capsys):
        inst = write_two_period(tmp_path)
        assert run("solve", "--instance", str(inst), "--ub", "12") == 2

    def test_forced_wisp_filter_still_exact(self, tmp_path, capsys):
        inst = write_two_period(tmp_path)
        code = run("solve", "--instance", str(inst), "--filter", "wisp", "--stats", "machine")
        record = json.loads(capsys.readouterr().out.strip())
        assert code == 0 and record["best_cost"] == 13

    def test_node_limit_prints_stop_reason(self, tmp_path, capsys):
        """A node limit reports status TIMEOUT, as a time limit does; the
        stop line tells the two apart."""
        out = tmp_path / "c3qr"
        assert run("generate", "--cls", "C3QR", "--count", "1", "--seed", "2", "--out", str(out)) == 0
        capsys.readouterr()
        code = run(
            "solve", "--instance", str(out / "C3QR_00.txt"), "--side-spec", str(out / "C3QR.side"),
            "--node-limit", "1",
        )
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert "status    TIMEOUT" in lines and "stop      node_limit" in lines

    def test_solution_round_trip_verifies(self, tmp_path, capsys):
        inst = write_two_period(tmp_path)
        sol_path = tmp_path / "sol.txt"
        assert run("solve", "--instance", str(inst), "--out-solution", str(sol_path)) == 0
        capsys.readouterr()
        assert run("verify", "--instance", str(inst), "--solution", str(sol_path)) == 0
        out = capsys.readouterr().out
        assert "VALID C=13" in out

    def test_verify_rejects_tampered(self, tmp_path, capsys):
        inst = write_two_period(tmp_path)
        sol_path = tmp_path / "sol.txt"
        run("solve", "--instance", str(inst), "--out-solution", str(sol_path))
        text = sol_path.read_text().replace("1 5 3 1", "1 4 3 1")
        sol_path.write_text(text)
        capsys.readouterr()
        assert run("verify", "--instance", str(inst), "--solution", str(sol_path)) == 2
        assert "INVALID" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "key, line, message",
        [
            ("T", "T", "expected 'T <int>'"),
            ("cp", "cp", "expected 'cp <int>'"),
            ("T", "T x", "field T: invalid integer 'x'"),
        ],
    )
    def test_verify_reports_malformed_line(self, tmp_path, capsys, key, line, message):
        inst = write_two_period(tmp_path)
        sol_path = tmp_path / "sol.txt"
        run("solve", "--instance", str(inst), "--out-solution", str(sol_path))
        lines = sol_path.read_text().splitlines()
        lineno = next(k for k, ln in enumerate(lines, start=1) if ln.split()[0] == key)
        lines[lineno - 1] = line
        sol_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("verify", "--instance", str(inst), "--solution", str(sol_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sol_path}:{lineno}: {message}")
        assert "Traceback" not in err

class TestBench:
    def test_report_over_small_suite(self, tmp_path, capsys):
        out = tmp_path / "suite"
        run("generate", "--d-avg", "10", "--delta", "3", "--theta-lo", "0.4",
            "--theta-hi", "0.6", "--T", "6", "--count", "3", "--seed", "2",
            "--out", str(out))
        capsys.readouterr()
        report = tmp_path / "report.txt"
        assert run("bench", "--dir", str(out), "--report", str(report)) == 0
        text = report.read_text()
        assert "MEAN" in text and "OPT=3" in text

    def test_report_deterministic_modulo_cpu(self, tmp_path, capsys):
        out = tmp_path / "suite"
        run("generate", "--d-avg", "9", "--delta", "2", "--theta-lo", "0.3",
            "--theta-hi", "0.7", "--T", "5", "--count", "2", "--seed", "4",
            "--out", str(out))
        capsys.readouterr()
        reports = []
        for k in range(2):
            rpt = tmp_path / f"r{k}.txt"
            run("bench", "--dir", str(out), "--report", str(rpt))
            capsys.readouterr()
            rows = []
            for line in rpt.read_text().splitlines():
                cols = line.split()
                if len(cols) >= 6 and cols[0].endswith(".txt"):
                    rows.append((cols[0], cols[1], cols[3], cols[4], cols[5]))  # drop CPU
            reports.append(rows)
        assert reports[0] == reports[1]

    def test_given_ub_protocol(self, tmp_path, capsys):
        out = tmp_path / "suite"
        run("generate", "--d-avg", "8", "--delta", "2", "--theta-lo", "0.5",
            "--theta-hi", "0.5", "--T", "5", "--count", "2", "--seed", "3",
            "--out", str(out))
        capsys.readouterr()
        assert run("bench", "--dir", str(out), "--given-ub") == 0
        assert "OPT=2" in capsys.readouterr().out

    def test_given_ub_keeps_unproven_discover_row(self, tmp_path, capsys, monkeypatch):
        """A discover run stopped with an unproven incumbent hands no bound
        on: its row stays TIMEOUT and no second solve runs."""
        out = tmp_path / "suite"
        run("generate", "--T", "4", "--count", "1", "--seed", "3", "--out", str(out))
        capsys.readouterr()
        calls = []

        def stopped(inst, side, config):
            calls.append(config)
            return None, SearchStats(nodes=7, best_cost=99, status="TIMEOUT", stop_reason="time_limit")

        monkeypatch.setattr(cli, "solve", stopped)
        assert run("bench", "--dir", str(out), "--given-ub") == 0
        text = capsys.readouterr().out
        assert len(calls) == 1 and calls[0].ub is None
        row = next(line.split() for line in text.splitlines() if line.startswith("custom_00.txt"))
        assert row[1] == "7" and row[-2:] == ["99", "TIMEOUT"]
        assert "OPT=0" in text


class TestBadInputs:
    @pytest.mark.parametrize("t", ["0", "-2"])
    def test_side_spec_period_below_one(self, tmp_path, capsys, t):
        inst = write_two_period(tmp_path)
        side = tmp_path / "bad.side"
        side.write_text(f"disj {t} 1 2\n")
        assert run("solve", "--instance", str(inst), "--side-spec", str(side)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {side}:1: ") and "periods start at 1" in err
        assert "Traceback" not in err

    def test_side_spec_period_past_horizon(self, tmp_path, capsys):
        inst = write_two_period(tmp_path)
        side = tmp_path / "far.side"
        side.write_text("disj 1 1 2\ndisj 99 1 2\n")
        assert run("solve", "--instance", str(inst), "--side-spec", str(side)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: disjunction for period 99, outside the horizon")
        assert "Traceback" not in err

    def test_verify_side_spec_period_past_horizon(self, tmp_path, capsys):
        """``verify`` rejects the spec as ``solve`` does, where it used to
        ignore the period and print VALID."""
        inst = write_two_period(tmp_path)
        sol_path = tmp_path / "sol.txt"
        assert run("solve", "--instance", str(inst), "--out-solution", str(sol_path)) == 0
        side = tmp_path / "far.side"
        side.write_text("disj 1 1 2\ndisj 99 1 2\n")
        capsys.readouterr()
        assert run("solve", "--instance", str(inst), "--side-spec", str(side)) == 2
        solve_err = capsys.readouterr().err
        code = run("verify", "--instance", str(inst), "--solution", str(sol_path), "--side-spec", str(side))
        out, err = capsys.readouterr()
        assert code == 2 and "VALID" not in out
        assert err == solve_err == "error: disjunction for period 99, outside the horizon\n"


    def test_unknown_filter_mode(self, tmp_path, capsys):
        """``--filter`` offers ``auto`` and ``wisp`` only."""
        inst = write_two_period(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run("solve", "--instance", str(inst), "--filter", "dp")
        assert exc.value.code == 2
        assert "invalid choice: 'dp'" in capsys.readouterr().err


class TestExportLp:
    def test_structure(self, tmp_path, capsys):
        inst = write_two_period(tmp_path)
        out = tmp_path / "model.lp"
        assert run("export-lp", "--instance", str(inst), "--out", str(out)) == 0
        text = out.read_text()
        assert text.count("bal") == 2
        assert text.count("setup") == 2
        assert "Binaries" in text and "Y1 Y2" in text
        assert "Minimize" in text and "End" in text
        # pure variable objective, no constant term
        obj = [ln for ln in text.splitlines() if ln.startswith(" obj:")][0]
        assert "+ 1 X1" in obj and "+ 5 Y1" in obj

    def test_infeasible_instance_still_exports(self, tmp_path):
        path = tmp_path / "inf.txt"
        path.write_text("T 1\n1 10 1 1 1 0 5 0 5\n")
        out = tmp_path / "inf.lp"
        assert run("export-lp", "--instance", str(path), "--out", str(out)) == 0
        assert out.exists()
