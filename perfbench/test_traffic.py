"""Traffic assertions: each workload exercises, and bypasses, exactly the layers claimed.

Counts are exact at the reference seed.  Run from the repository root:

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import re

import pytest

from run import ROOT, _Run
from tracing import COUNT_METRICS
from workloads import REFERENCE_SEED, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _traced_sample(name: str, tmp) -> dict:
    reference = json.loads((ROOT / "perfbench" / "digests.json").read_text())[name]
    run = _Run(name, REFERENCE_SEED, tmp, reference)
    res = run.sample(tmp / "spans.json")
    assert res is not None, f"{name}: traced call failed its output check"
    return res["layers"]


@pytest.fixture(scope="module")
def layers(tmp_path_factory) -> dict[str, dict]:
    return {name: _traced_sample(name, tmp_path_factory.mktemp(name)) for name in WORKLOADS}


def test_metric_names_match_the_declared_per_layer_metrics(layers):
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert all(NAME.fullmatch(n) for n in declared)
    for got in layers.values():
        assert all(NAME.fullmatch(n) for n in got)
        assert set(got) | {"trace.overhead_ratio"} == set(declared)


def test_mmc_long_bypasses_merge_sd_and_reports(layers):
    m = layers["mmc-long"]
    assert (m["des.run.calls"], m["des.merge.calls"], m["sd.steps"], m["io.report.bytes"]) == (1, 0, 0, 0)
    assert m["hybrid.cycles"] == 0 and m["des.log.records"] == 0


def test_des_replicated_merges_and_bypasses_sd_and_reports(layers):
    m = layers["des-replicated"]
    assert (m["des.run.calls"], m["des.merge.calls"], m["sd.steps"], m["io.report.bytes"]) == (200, 199, 0, 0)
    assert m["hybrid.cycles"] == 0 and m["des.log.records"] == 0


def test_hybrid_report_runs_sd_coupling_logs_and_reports(layers):
    m = layers["hybrid-report"]
    assert (m["hybrid.cycles"], m["des.run.calls"], m["sd.run.calls"], m["sd.steps"]) == (6, 6, 6, 24000)
    assert m["des.merge.calls"] == 0
    assert m["des.log.records"] > 0
    assert m["io.report.files"] == 10 and m["io.report.bytes"] > 0


def test_traced_counts_repeat_exactly(layers, tmp_path):
    again = _traced_sample("mmc-long", tmp_path)
    assert {k: again[k] for k in COUNT_METRICS} == {k: layers["mmc-long"][k] for k in COUNT_METRICS}
