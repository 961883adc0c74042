"""One benchmark round of each numeric workload passes the benchmark's own checks.

The workloads and their closed-form checks live in ``perfbench/``; this test
imports them unchanged, so an output the benchmark would count as wrong
fails the unit suite first.
"""

import importlib
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = REPO_ROOT / "perfbench"


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH_DIR))
        mp.setattr(sys, "dont_write_bytecode", True)
        workloads = importlib.import_module("workloads")
        gn = workloads.load_gammanoise(str(REPO_ROOT))
    return workloads, gn


@pytest.mark.parametrize("name", ["series_1d_q2", "series_2d_q4", "heat", "cli_defaults"])
def test_one_round_passes_checks(bench, tmp_path, name):
    workloads, gn = bench
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(1, str(tmp_path))
    outcomes = workload.run(gn, inputs)
    assert outcomes
    for out in outcomes:
        assert out.error is None, f"{out.op}: {out.error}"
        problem = workload.check(inputs, out)
        assert problem is None, f"{out.op}: {problem}"
