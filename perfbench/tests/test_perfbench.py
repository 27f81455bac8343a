"""Tests of the benchmark's own logic: argv, span analysis, the gate."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_argv(name):
    w = WORKLOADS[name]
    assert w.argv(7, "out") == w.argv(7, "out")
    if w.checked:
        assert w.argv(7, "out") != w.argv(8, "out")
        assert w.argv(7, "out")[-4:-2] == ["--seed", "7"]
    else:
        assert w.argv(7, "out") == w.argv(8, "out")
        assert "--seed" not in w.argv(7, "out")


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.LAYER_METRICS


def _span(sid, name, parent, thread, start, end, work=1):
    return spans.Span(sid, name, parent, thread, start, end, work)


def test_self_time_with_two_overlapping_worker_threads():
    # P waits on thread 1 while A (thread 2) and B (thread 3) run for it;
    # Q is an unrelated root on thread 4 that overlaps everything.
    tree = [
        _span(0, "P", None, 1, 0.0, 10.0),
        _span(1, "A", 0, 2, 1.0, 6.0),
        _span(2, "A1", 1, 2, 2.0, 3.0),
        _span(3, "B", 0, 3, 4.0, 9.0),
        _span(4, "Q", None, 4, 0.0, 10.0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 2.0, 1: 4.0, 2: 1.0, 3: 5.0, 4: 10.0})


def test_layer_metrics_sum_calls_work_and_time_per_span_name():
    tree = [
        _span(0, "flow.rk4", None, 1, 0.0, 4.0),
        _span(1, "accel.simplex", 0, 1, 1.0, 2.0, work=6),
        _span(2, "accel.simplex", 0, 1, 2.0, 2.5, work=4),
    ]
    metrics = spans.layer_metrics(tree)
    assert metrics["flow.rk4_s"] == pytest.approx(4.0)
    assert metrics["flow.rk4_self_s"] == pytest.approx(2.5)
    assert metrics["accel.simplex_s"] == pytest.approx(1.5)
    assert metrics["accel.simplex_calls"] == 2
    assert metrics["accel.simplex_cells"] == 10
    assert metrics["accel.simplex_call_p50_ms"] == pytest.approx(750.0)


def test_pool_workers_record_spans_under_the_submitting_span():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    pool_class = tracer.executor_class()

    def fan_out():
        with pool_class(max_workers=2) as pool:
            return list(pool.map(leaf, range(4)))

    assert tracer.wrap("root", fan_out)() == [1, 2, 3, 4]
    root = next(s for s in tracer.spans if s.name == "root")
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 4
    assert all(s.parent == root.id for s in leaves)


def _write_trajectory(path, snapshots):
    rows = ["t,species,particle,x_1,x_2,weight"]
    for t, (pos, w) in enumerate(snapshots):
        for m in range(len(w)):
            cells = (t * 0.1, 0, m, *map(float, pos[m]), float(w[m]))
            rows.append(",".join(map(repr, cells)))
    path.write_text("\n".join(rows) + "\n")


@pytest.fixture
def good_run(tmp_path):
    w = np.array([0.25, 0.5, 0.25])
    start = np.array([[0.0, 0.0], [1.0, 0.5], [-0.5, 2.0]])
    snapshots = [(start, w), (start + 0.01, w.copy()), (start + 0.02, w.copy())]
    _write_trajectory(tmp_path / "trajectory.csv", snapshots)
    return tmp_path, snapshots, gate.reference_of(tmp_path, checked=False)


def test_gate_accepts_the_reference_run_and_last_bit_changes(good_run):
    out, snapshots, reference = good_run
    assert gate.check_run(out, 0, reference) == []
    pos, w = snapshots[-1]
    snapshots[-1] = (pos + 1e-12, w)
    _write_trajectory(out / "trajectory.csv", snapshots)
    assert gate.check_run(out, 0, reference) == []


def test_gate_rejects_one_moved_particle(good_run):
    out, snapshots, reference = good_run
    pos, w = snapshots[-1]
    moved = pos.copy()
    moved[1, 0] += 1e-5
    snapshots[-1] = (moved, w)
    _write_trajectory(out / "trajectory.csv", snapshots)
    assert gate.check_run(out, 0, reference) == [
        "species 0: particle 1 ends 1e-05 from the reference"
    ]


def test_gate_rejects_one_changed_weight(good_run):
    out, snapshots, reference = good_run
    pos, w = snapshots[1]
    changed = w.copy()
    changed[2] = np.nextafter(changed[2], 1.0)
    snapshots[1] = (pos, changed)
    _write_trajectory(out / "trajectory.csv", snapshots)
    assert gate.check_run(out, 0, reference) == ["species 0: weights change at snapshot 1"]


def test_gate_rejects_a_failed_check_and_a_failed_exit(good_run):
    out, _, reference = good_run
    (out / "reports.csv").write_text(
        "check,lhs,rhs,slack,pass,fingerprint\n"
        "mass-conservation,0,0,1,true,{}\n"
        "stability-initial-data,2,1,1.05,false,{}\n"
    )
    checked = dict(reference, reports=["mass-conservation", "stability-initial-data"])
    assert gate.check_run(out, 0, checked) == ["check stability-initial-data failed"]
    assert gate.check_run(out, 1, reference) == ["exit status 1"]
