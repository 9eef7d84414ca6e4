"""Tests for the benchmark's own logic, at a tiny workload size.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import traced  # noqa: E402
from checks import CheckError, parse_ply_mm  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

TINY = Workload("tiny", 160, 120, 600)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(group):
    return run.metric_units(ROOT, group)


def _result(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def _assert_every_metric_printed(out: str, group: str) -> dict:
    lines = out.splitlines()
    result = _result(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = _units(group)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(
            line.startswith(f"{name} ") and line.split()[2] == unit for line in lines
        ), f"{name} is not printed with its unit {unit}"
        assert math.isfinite(result["metrics"][name]["value"])
    return result


def test_benchmark_json_names_the_workloads_and_metric_groups():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_workload_inputs_carry_the_seed(tmp_path):
    config = WORKLOADS["wide-thinned"].write_inputs(tmp_path, 41)
    assert (tmp_path / "scene.txt").read_text() == "room 4000 3000 2500 1500 seed 41\n"
    text = config.read_text()
    assert "vision.search_range_px = 24" in text and "intrinsics.focal_px = 280" in text


def test_self_time_subtracts_the_union_of_children():
    S = traced.Span
    spans = [
        S("root", 0.0, 10.0),
        S("a", 1.0, 4.0, parent=0),
        S("b", 3.0, 6.0, parent=0),  # overlaps a: the union 1..6 is covered once
        S("a.child", 2.0, 3.0, parent=1),
        S("late", 9.0, 12.0, parent=0),  # runs past its parent: only 9..10 counts
    ]
    assert traced.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_attribute_steps_by_state():
    S = traced.Span
    spans = [
        S("scan", 0.0, 1.0),
        S("scene.load", 0.0, 0.1, 0, {"points": 10}),
        S("scene.range", 0.1, 0.2, 0, {"step": 1}),
        S("planner.step", 0.2, 0.25, 0, {"step": 1}),
        S("scene.render", 0.25, 0.45, 0, {"step": 1}),
        S("planner.init", 0.45, 0.5, 0),
        S("vision.match", 0.5, 0.8, 0, {"pixels": 100, "ncc_evals": 1700, "matched": 25,
                                        "alloc_peak_mb": 2.0}),
        S("cloud.merge", 0.8, 0.85, 0, {"points": 30, "merged_from": 60}),
        S("cloud.accuracy", 0.85, 0.9, 0, {"targets": 7, "alloc_peak_mb": 1.0}),
        S("cloud.export_ply", 0.9, 0.95, 0, {"bytes": 99}),
        S("pgm.encode", 0.95, 1.0, 0, {"bytes": 11}),
    ]
    m = traced.layer_metrics(spans)
    assert m["planner.steps"] == 3
    assert m["planner.self_s"] == pytest.approx(0.1)
    assert m["scene.splat_points"] == 10 * 2 * 1
    assert m["vision.matched_frac"] == pytest.approx(0.25)
    assert m["cloud.merge_kept_frac"] == pytest.approx(0.5)
    assert set(m) | {"trace.overhead_frac"} == set(_units("per_layer"))


def test_scan_note_names_a_percentile_only_with_ten_samples_beyond():
    assert "n=20; no percentile" in run.scan_note([1.0] * 20)
    assert run.scan_note([float(i) for i in range(1, 31)]).endswith("p66 = 20 s")


def test_scan_run_prints_every_end_to_end_metric(tmp_path, capsys):
    run.run_scans(TINY, 3, 0.1, tmp_path, run.child_env(run.SRC), _units("end_to_end"))
    out = capsys.readouterr().out
    result = _assert_every_metric_printed(out, "end_to_end")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    assert "fail_frac 0 failed/attempted" in out


def test_traced_run_prints_every_per_layer_metric_and_matches_the_cli(tmp_path, capsys):
    run.run_traced(TINY, 3, 0.1, tmp_path, run.child_env(run.SRC), _units("per_layer"))
    result = _assert_every_metric_printed(capsys.readouterr().out, "per_layer")
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["vision.match_calls"]["value"] == TINY.captures
    assert result["metrics"]["scene.points"]["value"] == TINY.points


def test_injected_failures_raise_fail_frac(tmp_path, capsys, monkeypatch):
    real_run_child = run.run_child
    calls = []

    def faulty(argv, env, timeout_s, log):
        wall, rss, code = real_run_child(argv, env, timeout_s, log)
        if "scan" in argv:
            calls.append(argv)
            out_dir = Path(argv[-1])
            if len(calls) == 2:  # truncated cloud.ply
                ply = out_dir / "cloud.ply"
                ply.write_bytes(ply.read_bytes()[:-100])
            if len(calls) == 3:
                code = 3
        return wall, rss, code

    monkeypatch.setattr(run, "run_child", faulty)
    run.run_scans(TINY, 3, 0.1, tmp_path, run.child_env(run.SRC), _units("end_to_end"))
    out = capsys.readouterr().out
    result = _result(out)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 2)
    assert "fail_frac 0.666667 failed/attempted" in out
    assert "exit code 3" in out and "cloud.ply" in out


def test_ply_parser_rejects_a_truncated_body():
    good = b"ply\nformat ascii 1.0\nelement vertex 2\nend_header\n1 2 3 0.5\n4 5 6 0.5\n"
    assert parse_ply_mm(good).tolist() == [[1000, 2000, 3000], [4000, 5000, 6000]]
    with pytest.raises(CheckError):
        parse_ply_mm(good[:-4])
