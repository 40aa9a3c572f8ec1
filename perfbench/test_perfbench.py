"""Tests of the benchmark itself:

    python3 -m pytest perfbench -q
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

CHEAP = [
    ("cli", ("asym", "C", "--n", "100", "--terms", "5")),
    ("cli", ("asym", "C", "--n", "150", "--terms", "5")),
    ("census", (5,)),
]


def span(start, end, parent):
    return ("s", start * 10**9, end * 10**9, parent)


def test_self_time_nested_and_siblings():
    spans_ = [
        span(0, 10, -1),  # root
        span(1, 4, 0),  # child of root
        span(2, 3, 1),  # grandchild
        span(5, 9, 0),  # second child of root
        span(6, 7, 3),  # child of the second child
        span(6.5, 8, 3),  # overlapping sibling of the one above
    ]
    assert spans.self_times(spans_) == [3.0, 2.0, 1.0, 2.0, 1.0, 1.5]


def test_self_time_clips_children_to_parent():
    assert spans.self_times([span(0, 4, -1), span(3, 6, 0), span(-1, 1, 0)]) == [2.0, 3.0, 2.0]


def test_corrupted_reference_fails_exactly_that_job():
    refs, _ = run.load_references()
    bad = json.loads(json.dumps(refs))
    key = "cli asym C --n 150 --terms 5"
    bad["digests"][key] = "0" * 64
    records, _ = run.run_rounds([CHEAP], bad, seconds=0, trace=False)
    assert [r["job"] for r in records if run.failed(r)] == [key]
    metrics = run.end_to_end_metrics(records, [(0.1, 1.0)])
    assert metrics["ok_frac"] == pytest.approx(2 / 3)
    records, _ = run.run_rounds([CHEAP], refs, seconds=0, trace=False)
    assert not any(map(run.failed, records))


def test_isolation_check_passes():
    refs, _ = run.load_references()
    assert run.isolation_check(refs) is None


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    refs, ref_s = run.load_references()
    records, _ = run.run_rounds([CHEAP], refs, seconds=0, trace=True)
    e2e = run.end_to_end_metrics(records, [(0.1, 1.0)])
    layers, units = run.layer_metrics(records, ref_s)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: run.END_TO_END_UNITS[k] for k in e2e
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert layers["chord.census.calls"] == pytest.approx(1 / 3)
    assert layers["fps.int_coeff_share"] > 0


def test_times_are_scaled_to_the_reference_speed(monkeypatch):
    refs, _ = run.load_references()
    monkeypatch.setattr(run.speed, "kernel_s", lambda: 4 * run.speed.REF_S)
    record = run.run_job(CHEAP[0], refs)
    assert record["speed"] == 0.25
    assert record["ref_s"] == pytest.approx(record["latency_s"] / 4)
    probe_wall, probe_speed = run.probe_setup("series", 1)
    assert probe_wall > 0 and probe_speed < 0.5  # half of it is the patched kernel


def test_raising_or_hanging_child_is_a_failed_job():
    refs, _ = run.load_references()
    record = run.run_job(("roundtrip", ("no-such-map", 5)), refs)
    assert run.failed(record) and "unknown bijection" in record["error"]
    reply, t_fork, t_done = run.run_child(lambda: time.sleep(30), timeout=0.2)
    assert reply is None and t_done - t_fork < 5
