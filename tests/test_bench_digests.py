"""The first rounds of the exact benchmark workloads reproduce their frozen digests.

The benchmark checks every exact result against the sha256 digest frozen in
bench/data/<workload>.json.  Running a couple of rounds here, in process,
catches a change of representation that alters an answer (or the shape in
which it is reported) in the tier-1 suite, and not only in a benchmark run.
The reports of `theta check`, which no workload runs, are frozen here too.
"""

import hashlib
import importlib.util
import json
import pathlib
import warnings

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
ROUNDS = (0, 1)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _first_round_jobs(workloads, name):
    """The workload, its jobs of ROUNDS, parsed, and the frozen digests."""
    w = workloads.WORKLOADS[name]
    expect = json.loads((BENCH / "data" / f"{name}.json").read_text())["expect"]
    w.setup()
    jobs = [job for r in ROUNDS for job in w.make_round(r)]
    for job in jobs:
        job.parsed = w.parse(job)
    return w, jobs, expect


def _mismatches(workloads, w, jobs, expect):
    return [job.key for job in jobs
            if workloads.digest(w.canonical(job, w.execute(job))) != expect[job.key]]


@pytest.mark.parametrize("name", ["genus-towers", "equivariant-exact"])
def test_first_rounds_match_frozen_digests(name):
    workloads = _load_workloads()
    with warnings.catch_warnings():
        w, jobs, expect = _first_round_jobs(workloads, name)
        mismatches = _mismatches(workloads, w, jobs, expect)
    assert jobs
    assert mismatches == []


def test_exact_digests_hold_on_a_cleared_and_on_a_warm_memo():
    # the tower rows and the moving rows are memoized without the order, so
    # a memo filled in one job order must answer the reverse order as a
    # cleared one does
    from genusforge import series

    workloads = _load_workloads()
    for name in ("genus-towers", "equivariant-exact"):
        with warnings.catch_warnings():
            w, jobs, expect = _first_round_jobs(workloads, name)
            series._PREFIX_ROWS.clear()
            assert _mismatches(workloads, w, jobs, expect) == [], name
            assert series._PREFIX_ROWS, name
            assert _mismatches(workloads, w, jobs[::-1], expect) == [], name


# sha256 (first 16 hex digits) of the JSON text of each `theta check --kind theta1
# --grid 3x2` report, with floats scrubbed as the cli-runs workload scrubs them and
# keys in the order the CLI prints them
_THETA_REPORTS = {"S": "aac404ec75e36665", "T": "dd0924082886517d",
                  "lattice": "1d9e5a0cade26fe4"}


def test_theta_check_reports_keep_their_shape():
    from genusforge.cli import run

    workloads = _load_workloads()
    for law, want in _THETA_REPORTS.items():
        code, report, _ = run(["theta", "check", "--law", law, "--kind", "theta1",
                               "--grid", "3x2"])
        text = json.dumps(workloads.canonical_report(report))
        assert (code, hashlib.sha256(text.encode()).hexdigest()[:16]) == (0, want), text
