"""Acceptance battery: every criterion at its stated tolerance.

Each test delegates to the shared suite runner (the CLI `suite` verb runs
the same functions) and prints the one-line verdict for the log.  The
verdict and detail come from the reports each criterion returns.
"""

import json

from nonlocalflow import suite
from nonlocalflow.harness import BoundReport


def _run(fn):
    result = fn()
    status = "PASS" if result.passed else "FAIL"
    print(
        f"[{status}] criterion {result.number}: {result.name} "
        f"({result.detail}) [{result.runtime:.1f}s]"
    )
    assert result.passed, f"criterion {result.number}: {result.detail}"
    return result


def test_criterion_1_mass_conservation():
    res = _run(suite.criterion_1_mass_conservation)
    assert res.runtime < 60.0


def test_criterion_2_w1_exactness():
    res = _run(suite.criterion_2_w1_exactness)
    assert res.runtime < 60.0


def test_criterion_3_duality():
    _run(suite.criterion_3_duality)


def test_criterion_4_initial_stability():
    res = _run(suite.criterion_4_initial_stability)
    assert res.runtime < 300.0


def test_criterion_5_general_stability():
    res = _run(suite.criterion_5_general_stability)
    assert res.runtime < 180.0


def test_criterion_6_contraction():
    _run(suite.criterion_6_contraction)


def test_criterion_7_method_agreement():
    res = _run(suite.criterion_7_method_agreement)
    assert res.runtime < 180.0


def test_criterion_8_weak_form():
    _run(suite.criterion_8_weak_form)


def test_criterion_9_linfty_growth():
    _run(suite.criterion_9_linfty_growth)


def test_criterion_10_reduced_ode():
    _run(suite.criterion_10_reduced_ode)


def test_full_suite_under_ten_minutes(tmp_path):
    import time

    t0 = time.perf_counter()
    results = suite.run_suite(tmp_path)
    elapsed = time.perf_counter() - t0
    assert all(r.passed for r in results)
    assert elapsed < 600.0
    rows = json.loads((tmp_path / "suite.json").read_text())
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
