"""Quick self tests of the benchmark harness (no ``repro`` run needed).

Run with ``python3 -m pytest perfbench/tests -q`` from the repo root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402
import spans as S  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_printed_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    assert M.END_TO_END == _units("end_to_end")
    assert M.per_layer_units() == _units("per_layer")
    printed = M.Tally().result(M.per_layer([], 0.0), M.per_layer_units())
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["metrics"].keys() == _units("per_layer").keys()


def _span(id_, name, start, end, parent=None, rid=None):
    return S.Span(id_, name, start, end, parent, tid=1, rid=rid)


def test_self_time_on_a_synthetic_tree():
    # root [0,100] has children a [10,40] and b [30,60], which overlap
    # by 10 and are counted once; a has a child c [15,25]; d [90,120]
    # sticks out of root and only its inside part [90,100] counts.
    tree = [
        _span(0, "root", 0, 100),
        _span(1, "a", 10, 40, parent=0),
        _span(2, "b", 30, 60, parent=0),
        _span(3, "c", 15, 25, parent=1),
        _span(4, "d", 90, 120, parent=0),
        _span(5, "a", 200, 210),
    ]
    got = S.self_times(tree)
    assert got["root"] == (1, 100 - 50 - 10)
    assert got["a"] == (2, (30 - 10) + 10)
    assert got["b"] == (1, 30)
    assert got["c"] == (1, 10)
    assert got["d"] == (1, 30)


def test_coverage_counts_only_the_requests_own_spans():
    spans = [
        _span(0, "serve.request", 10, 20, rid="r1"),
        _span(1, "serve.request", 15, 40, rid="r2"),
        _span(2, "import.repro", 50, 60),
    ]
    assert S.covered_ns(spans, 0, 30, rid="r1") == 10
    assert S.covered_ns(spans, 0, 30) == 20
    proc = M.TracedProcess(spans, {}, [(0, 30, "r1"), (45, 65, None)])
    out = M.per_layer([proc], overhead_share=0.02, transport_ms=1.5)
    assert out["trace.attributed_share"] == pytest.approx((10 + 10) / (30 + 20))
    assert out["serve.request_s"] == pytest.approx(35e-9)
    assert out["trace.overhead_share"] == 0.02
    assert out["serve.transport_ms"] == 1.5


def test_failure_accounting():
    tally = M.Tally()
    assert tally.attempt(True)
    assert not tally.attempt(False)  # non-zero exit, timeout or non-200
    assert tally.correct is False and tally.wrong == []
    assert tally.check(True, "fine")
    assert not tally.check(False, "front differs")
    result = tally.result({"x": 1.0}, {"x": "s"})
    assert (result["attempted"], result["failed"]) == (2, 2)
    assert result["correct"] is False
    assert tally.wrong == ["front differs"]
    clean = M.Tally()
    clean.attempt(True)
    assert clean.correct and clean.result({}, {})["failed"] == 0


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert M.percentile(values, 99) == 198
    assert M.percentile([5.0, 7.0], 99) == 7.0


def test_tail_needs_a_hundred_samples_beyond_it():
    assert M.tail(list(range(1, 10001))) == (9900, "p99")
    assert M.tail(list(range(1, 2001))) == (1800, "p90")
    assert M.tail(list(range(1, 999))) == (499.5, "p50")


def _aimed(seed):
    traffic = W.Traffic(seed)
    front = [{"latency_ms": 5.0}, {"latency_ms": 40.0}]
    traffic.aim({key: (None, front) for key in traffic.keys})
    return traffic


def test_traffic_is_a_function_of_the_seed():
    a, b = _aimed(7), _aimed(7)
    every = range(len(W.DEVICES) * W.ROUND)
    assert [a.request(i) for i in every] == [b.request(i) for i in every]
    misses = [i for i in every if a.request(i)[0]]
    assert misses == [0, W.ROUND, 2 * W.ROUND]
    assert [a.request(i)[4][:2] for i in misses] == a.keys[1:]
    assert {a.request(i)[4][:2] for i in every if i not in misses} == {a.warm_key}
    targets = [a.request(i)[4][2] for i in every]
    assert all(5.0 <= t <= 40.0 for t in targets if t is not None)
    assert W.Traffic(8).warm_key != a.warm_key


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search_a",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
