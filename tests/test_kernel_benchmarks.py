"""The kernel micro-benchmarks in ``benchmarks/`` still import and run.

They reach private names (``_build_forward``, ``_backward_rows``,
``_window_min``, ``LotSizingConstraint._trace_plan`` and ``_flow_bounds``),
the snapshot builder ``strip_lower_bounds`` and the constraint's
constructor, so a signature change there would otherwise break them without
failing any test here. One
pass of each case, with timing off, takes a few seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_kernel_benchmarks_run_once():
    pytest.importorskip("pytest_benchmark")
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/", "-q", "--benchmark-disable", "-p", "no:cacheprovider"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
