"""Every committed BENCH_*.json holds the evidence it claims to hold.

A record names the parent and change commits it compares. Each workload
has a run of both, and each run passed its correctness check, was made
from the commit its side names and reports every end-to-end metric that
BENCHMARK.json declares. The files are only read.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def read(path):
    """The parsed document at path, and its bytes as read."""
    raw = path.read_bytes()
    return json.loads(raw), raw


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_each_side_ran_its_own_commit_and_reports_every_metric(path):
    benchmark, benchmark_raw = read(ROOT / "BENCHMARK.json")
    record, record_raw = read(path)
    metrics = {metric["name"] for metric in benchmark["end_to_end"]}
    commits = {side: record[f"{side}_commit"] for side in SIDES}
    for side, commit in commits.items():
        assert isinstance(commit, str) and len(commit) == 40, f"{side}_commit"
    assert commits["parent"] != commits["change"]
    assert record["workloads"]
    for workload, sides in record["workloads"].items():
        assert set(sides) == set(SIDES), workload
        for side in SIDES:
            run, result = sides[side]["run_record"]["run"], sides[side]["result"]
            where = f"{workload}/{side}"
            assert run["workload"] == workload, where
            assert run["git_commit"] == commits[side], where
            assert result["correct"] is True, where
            assert metrics <= set(result["metrics"]), where
    # reading changed nothing
    assert (ROOT / "BENCHMARK.json").read_bytes() == benchmark_raw
    assert path.read_bytes() == record_raw
