"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
the same criteria back the ``gammanoise selftest`` subcommand.
"""

import hashlib

import pytest

from gammanoise.acceptance import CRITERIA, criterion_12, run_criteria
from gammanoise.cli import main

from conftest import read_csv

SEED = 7

RUNTIME_BUDGETS_S = {1: 120.0, 2: 60.0, 10: 300.0}

# sha256 of the default ``selftest`` CSV at seed 7; any change to a criterion's
# numbers or to the CSV format shows here
SELFTEST_CSV_SHA256 = "c396a35c53fd0801a9d33d15917cb7c4f03f4bb3f75ff8821b14e3b404cc7136"


@pytest.fixture(scope="module")
def base_run():
    timings = {}
    records = run_criteria(SEED, workers=1, timings=timings)
    return records, timings


@pytest.mark.parametrize("cid", sorted(CRITERIA))
def test_criterion(cid, base_run):
    records, timings = base_run
    rec = next(r for r in records if r["criterion"] == cid)
    name = rec["name"]
    status = "PASS" if rec["passed"] else "FAIL"
    print(f"criterion {cid:>2} [{status}] {name}: {rec['metrics']}")
    assert rec["passed"], f"criterion {cid} ({name}) failed: {rec['metrics']}"
    budget = RUNTIME_BUDGETS_S.get(cid)
    if budget is not None:
        assert timings[name] < budget, (
            f"criterion {cid} took {timings[name]:.1f}s (budget {budget}s)")


def test_criterion_12_reproducibility(base_run):
    records, _ = base_run
    passed, record = criterion_12(SEED, workers=1, base_records=records)
    status = "PASS" if passed else "FAIL"
    print(f"criterion 12 [{status}] reproducibility: {record['metrics']}")
    assert passed, record["metrics"]


def test_selftest_cli_end_to_end(tmp_path):
    out = tmp_path / "selftest.csv"
    code = main(["selftest", "--out", str(out), "--seed", str(SEED)])
    assert code == 0
    rows = read_csv(out)
    assert [r["criterion"] for r in rows] == list(range(1, 13))
    assert all(r["passed"] for r in rows)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SELFTEST_CSV_SHA256
