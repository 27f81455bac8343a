"""Acceptance battery: every criterion at its stated tolerance.

The ten criteria run once per session, through the shared suite runner
(the CLI `suite` verb runs the same code), and each test reads its
criterion's result, its runtime and its printed verdict line from that one
run.  The verdict and detail come from the reports each criterion returns.
"""

import contextlib
import io
import json
import time

import pytest

from nonlocalflow import suite
from nonlocalflow.harness import BoundReport


@pytest.fixture(scope="module")
def suite_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("suite")
    printed = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        results = suite.run_suite(out_dir)
    elapsed = time.perf_counter() - t0
    print(printed.getvalue(), end="")
    rows = json.loads((out_dir / "suite.json").read_text())
    return {r.number: r for r in results}, printed.getvalue().splitlines(), elapsed, rows


def _check(suite_run, number, runtime_bound=None):
    results, lines, _, _ = suite_run
    result = results[number]
    assert result.passed, f"criterion {result.number}: {result.detail}"
    verdict = (
        f"[PASS] criterion {result.number}: {result.name} "
        f"({result.detail}) [{result.runtime:.1f}s]"
    )
    assert verdict in lines
    if runtime_bound is not None:
        assert result.runtime < runtime_bound
    return result


def test_criterion_1_mass_conservation(suite_run):
    _check(suite_run, 1, 60.0)


def test_criterion_2_w1_exactness(suite_run):
    _check(suite_run, 2, 60.0)


def test_criterion_3_duality(suite_run):
    _check(suite_run, 3)


def test_criterion_4_initial_stability(suite_run):
    _check(suite_run, 4, 300.0)


def test_criterion_5_general_stability(suite_run):
    _check(suite_run, 5, 180.0)


def test_criterion_6_contraction(suite_run):
    _check(suite_run, 6)


def test_criterion_7_method_agreement(suite_run):
    _check(suite_run, 7, 180.0)


def test_criterion_8_weak_form(suite_run):
    _check(suite_run, 8)


def test_criterion_9_linfty_growth(suite_run):
    _check(suite_run, 9)


def test_criterion_10_reduced_ode(suite_run):
    _check(suite_run, 10)


def test_full_suite_under_ten_minutes(suite_run):
    results, _, elapsed, rows = suite_run
    assert all(r.passed for r in results.values())
    assert elapsed < 600.0
    assert [row["criterion"] for row in rows] == list(range(1, 11))
    for row in rows:
        assert row["reports"], row["criterion"]
        assert row["passed"] == all(rep["passed"] for rep in row["reports"])


def test_a_failing_report_fails_its_criterion_under_the_same_name(monkeypatch):
    monkeypatch.setattr(suite, "CRITERIA", [])
    lhs = [0.5]

    @suite.criterion(99, "probe criterion")
    def probe():
        return [
            BoundReport.make("loose-bound", 0.1, 1.0, 1.0, {}),
            BoundReport.make("probe-bound", lhs[0], 1.0, 1.0, {"seed": 7}),
        ]

    passing = probe()
    lhs[0] = 2.0
    failing = probe()
    assert passing.passed and not failing.passed
    assert "tightest probe-bound: 0.5 <= 1" in passing.detail
    assert failing.detail == "1/2 fail: probe-bound: 2 > 1 {'seed': 7}"
    assert (failing.number, failing.name) == (passing.number, passing.name) == (99, "probe criterion")
    assert [r.name for r in failing.reports] == ["loose-bound", "probe-bound"]
    assert suite.CRITERIA == [probe]
