"""Tests of the suite benchmark, every workload at a small scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest
import run
import spans
import worker
from workloads import WORKLOADS

SCALE = 0.05
SEED = 3


@pytest.fixture(scope="module")
def docs():
    """Per workload: two untraced workers and one traced, in process."""
    return {
        name: (
            worker.measure(name, SEED, False, scale=SCALE),
            worker.measure(name, SEED, False, scale=SCALE),
            worker.measure(name, SEED, True, scale=SCALE),
        )
        for name in WORKLOADS
    }


def fingerprints(doc):
    return [point["fingerprint"] for point in doc["points"]]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_fingerprints_repeat_across_runs(docs, name):
    first, second, _ = docs[name]
    assert len(fingerprints(first)) == len(WORKLOADS[name].points)
    assert fingerprints(first) == fingerprints(second)
    assert all(not p["ledger_error"] for p in first["points"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_fingerprints_equal_untraced(docs, name):
    first, second, traced = docs[name]
    assert fingerprints(traced) == fingerprints(first)
    entry = run.check([first, second], [traced], None)
    assert (entry["ops"], entry["failed_ops"]) == (3 * len(WORKLOADS[name].points), 0)


def test_a_changed_result_is_a_failed_op(docs):
    first, _, traced = docs["fwd64_linerate"]
    altered = json.loads(json.dumps(traced))
    altered["points"][1]["fingerprint"] = "00000000"
    entry = run.check([first], [altered], None)
    assert entry["failed_ops"] == 1
    assert "traced pass 1 point rss" in entry["failures"][0]
    pinned = run.check([first], [], ["00000000"] * 2)
    assert pinned["failed_ops"] == 2


def test_span_table_resolves_and_restores():
    targets = spans.resolve()
    assert {layer for *_, layer, _factory in targets} == set(spans.LAYERS)
    originals = [(owner, attr, fn) for owner, attr, fn, _layer, _factory in targets]
    with pytest.raises(RuntimeError, match="inside"):
        with spans.installed(spans.LayerClock()):
            assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
            raise RuntimeError("inside")
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)


def test_span_table_fails_loudly_on_a_missing_entry(monkeypatch):
    stale = ("sim", "repro.sim.engine", "Simulator", ("run_renamed",))
    monkeypatch.setattr(spans, "SPAN_TABLE", spans.SPAN_TABLE + (stale,))
    with pytest.raises(spans.SpanTableError, match="Simulator.run_renamed"):
        spans.resolve()


def test_document_carries_every_metric_with_its_unit(docs):
    spec = run.load_spec()
    for name, (first, second, traced) in docs.items():
        entry = {"ops": 6, "failed_ops": 0,
                 "metrics": run.end_to_end([first, second], spec),
                 "layers": run.per_layer([traced], [first, second])}
        assert all(v["value"] > 0 for v in entry["metrics"].values()), name
        assert entry["layers"]["trace.unattributed_share"]["value"] < run.UNATTRIBUTED_FLAG
        for trace, names in ((False, "end_to_end"), (True, "per_layer")):
            line = run.result_line({"workloads": {name: entry}}, spec, trace)
            assert (line["correct"], line["attempted"], line["failed"]) == (True, 6, 0)
            assert {k: v["unit"] for k, v in line["metrics"].items()} == {
                m["name"]: m["unit"] for m in spec[names]
            }, (name, names)


def test_benchmark_json_names_the_workloads():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert spec["paths"] == ["benchmarks/suite"]


def test_compare_exits_1_beyond_a_bound(tmp_path, capsys):
    def document(wall_s):
        metrics = {"wall_s": {"value": wall_s, "unit": "s"}}
        return {"workloads": {"tcp_cubic": {"metrics": metrics}}}

    old, ok, worse = tmp_path / "old.json", tmp_path / "ok.json", tmp_path / "worse.json"
    old.write_text(json.dumps(document(2.0)))
    ok.write_text(json.dumps(document(2.1)))
    worse.write_text(json.dumps(document(2.5)))
    assert run.main(["--compare", str(old), str(ok)]) == 0
    assert run.main(["--compare", str(old), str(worse)]) == 1
    assert "regression beyond bound: tcp_cubic wall_s +25.0%" in capsys.readouterr().out


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the suite, the runner exits non-zero."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "tcp_cubic", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
