"""Tests of the benchmark's own code on tiny suite configurations.

Run from the repository root: ``python -m pytest perfbench``.
"""

import json
from pathlib import Path

import pytest

import run
from layertrace import LAYERS, layer_metrics

TINY_HECKE = ("verify", "hecke", "--r", "3")
TINY_TENSOR = ("verify", "alt-centralizer", "--m", "1", "--n", "1", "--r", "2")


def _traced(workload, tmp_path):
    tmp_path.mkdir(exist_ok=True)
    result = run.measure(workload, 0, 0, True, tmp_path)
    statuses = [r["status"] for r in result["runs"]]
    assert statuses == ["ok", "ok"], statuses
    assert [r["traced"] for r in result["runs"]] == [False, True]
    trace = json.loads((tmp_path / "trace-1.json").read_text())
    return result, trace


@pytest.mark.parametrize("workload", [TINY_HECKE, TINY_TENSOR], ids=["hecke", "tensor"])
def test_spans_nest_and_self_times_add_up(workload, tmp_path):
    result, trace = _traced(workload, tmp_path)
    spans = {s[0]: s for s in trace["spans"]}
    roots = [s for s in spans.values() if s[1] is None]
    assert [s[2] for s in roots] == ["cli.main"]
    for sid, parent, name, layer, start, end, own in spans.values():
        assert start <= end and own >= -1e-9, name
        if parent is not None:
            p = spans[parent]
            assert p[4] <= start and end <= p[5], (name, p[2])
    for agg in trace["aggregates"]:
        assert agg[2] > 0 and agg[4] >= -1e-9, agg
    layers = layer_metrics(trace)
    self_total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    assert all(layers[f"{layer}.self_s"] >= -1e-9 for layer in LAYERS)
    traced_verify_s = result["runs"][1]["verify_s"]
    assert self_total <= layers["verify_s"] <= traced_verify_s
    assert self_total >= 0.9 * layers["verify_s"]


def test_layer_counters_see_the_work(tmp_path):
    _, hecke_trace = _traced(TINY_HECKE, tmp_path / "h")
    hecke = layer_metrics(hecke_trace)
    assert hecke["hecke.mul.calls"] > 0 and hecke["hecke.tp_left_col.calls"] > 0
    assert 0 <= hecke["hecke.tp_left_col.reuse"] < 1
    assert hecke["tensor.matmul.calls"] == 0 and hecke["commutant.closure.tried"] == 0
    _, tensor_trace = _traced(TINY_TENSOR, tmp_path / "t")
    tensor = layer_metrics(tensor_trace)
    assert tensor["commutant.closure.tried"] >= tensor["commutant.closure.accepted"] > 0
    assert tensor["commutant.nullspace.constraints"] > 0
    assert tensor["commutant.nullspace.nullity"] > 0
    assert tensor["commutant.contains.calls"] > 0
    assert tensor["tensor.matmul.nnz"] >= tensor["tensor.matmul.calls"] > 0
    assert tensor["qfield.ops"] > 0 and tensor["tensor.build_s"] > 0
    assert hecke["hecke.mul.calls"] > tensor["hecke.mul.calls"] == 0


def test_every_metric_is_reported_and_declared(tmp_path):
    for sub in ("h", "t"):
        (tmp_path / sub).mkdir()
    traced = run.measure(TINY_TENSOR, 0, 0, True, tmp_path / "h")
    plain = run.measure(TINY_TENSOR, 0, 0, False, tmp_path / "t")
    declared = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    layer_line = run.result_line(traced, True)
    e2e_line = run.result_line(plain, False)
    assert set(layer_line) == set(e2e_line) == {"correct", "attempted", "failed", "metrics"}
    assert layer_line["correct"] and e2e_line["correct"]
    assert list(layer_line["metrics"]) == [m["name"] for m in declared["per_layer"]]
    assert list(e2e_line["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    for line, spec in ((layer_line, declared["per_layer"]), (e2e_line, declared["end_to_end"])):
        for m in spec:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert layer_line["metrics"]["suites.arbitrations"]["value"] == 0
    assert layer_line["metrics"]["fail_rate"]["value"] == 0
    assert e2e_line["metrics"]["verify_s"]["value"] > 0
    assert e2e_line["metrics"]["setup_s"]["value"] > 0
    assert all(r["probe_s"] > 0 for r in plain["probes"] + plain["runs"])


def test_forced_failure_is_counted(tmp_path):
    result = run.measure(TINY_HECKE, 0, 0, True, tmp_path)
    result["runs"].append({"status": "timeout after 1 s", "seed": 0, "traced": False})
    line = run.result_line(result, True)
    assert line["metrics"]["fail_rate"]["value"] == pytest.approx(1 / 3)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 3, 1)


def test_changed_report_bytes_fail_the_repetition(tmp_path):
    stamped = (*TINY_HECKE, "--timestamps")
    result = run.measure(stamped, 0, 0, False, tmp_path)
    first, second = result["runs"]
    assert first["status"] == "ok"
    assert second["status"] == "report bytes differ from the first run of this seed"
    assert first["sha256"] != second["sha256"]
    line = run.result_line(result, False)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 2, 1)


def test_nonzero_exit_and_timeout_fail_the_run(tmp_path):
    refused = ("verify", "hecke", "--r", "9")
    result = run.measure(refused, 5, 0, False, tmp_path)
    assert [r["status"] for r in result["runs"]] == ["qhecke exit code 2"] * 2
    assert run.result_line(result, False) is None
    hung = run.measure(TINY_HECKE, 7, 0, False, tmp_path, timeout=0.01)
    assert len(hung["runs"]) == 1
    assert hung["runs"][0]["status"].startswith("timeout")
    assert hung["runs"][0]["seed"] == 7
