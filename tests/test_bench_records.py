"""Every committed ``BENCH_*.json`` record is readable and names what it
measured: the command that produced it, the machine, the claim and a
summary, with the claim led by a workload and an end-to-end metric that
``BENCHMARK.json`` defines."""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_names_its_measurement(path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = {m["name"] for m in benchmark["end_to_end"]}
    record = json.loads(path.read_text())
    for field in ("command", "machine", "claim", "summary"):
        assert record.get(field), f"{path.name} has no {field}"
    assert "perfbench/run.py" in record["command"]
    words = record["claim"].split()
    assert len(words) >= 2, record["claim"]
    assert words[0] in workloads, record["claim"]
    assert words[1].rstrip(":,;") in metrics, record["claim"]
