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


# the numeric workloads run at three seeds, so the checks see more than one draw of
# each stream; a seed-1 round keeps the workload's bare name as its id
@pytest.mark.parametrize("name,seed", [
    pytest.param(name, seed, id=name if seed == 1 else f"{name}-seed{seed}")
    for name in ("series_1d_q2", "series_2d_q4", "heat") for seed in (1, 2, 3)
] + [pytest.param("cli_defaults", 1, id="cli_defaults")])
def test_one_round_passes_checks(bench, tmp_path, name, seed):
    workloads, gn = bench
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(seed, str(tmp_path))
    outcomes = workload.run(gn, inputs)
    assert outcomes
    for out in outcomes:
        assert out.error is None, f"{out.op}: {out.error}"
        problem = workload.check(inputs, out)
        assert problem is None, f"{out.op}: {problem}"
