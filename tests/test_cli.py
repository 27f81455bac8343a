import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nonlocalflow import (
    AuditError,
    VelocityField,
    VelocityModel,
    _accel,
    audit_velocity_field,
    cli,
    solve,
    solve_direct,
    w1_vector,
    wasserstein,
)
from nonlocalflow.cli import RunConfig, main, run
from nonlocalflow.output import emit_plotdata
from nonlocalflow.scenario import (
    ScenarioParseError,
    bundled_scenarios,
    load_config,
    load_raw,
    load_scenario,
    scenario_from_config,
)


def test_bundled_list_contains_standard_scenarios():
    names = bundled_scenarios()
    assert "sedimentation-1d" in names
    assert "pedestrian-2d" in names


def test_bundled_sedimentation_loads():
    scn = load_scenario("sedimentation-1d")
    assert scn.initial.k == 1
    assert scn.initial.dim == 1


def test_unknown_kernel_name_is_reported():
    raw = load_raw("sedimentation-1d")
    raw["model"]["kernel"]["name"] = "boxcar"
    with pytest.raises(ScenarioParseError, match="model.kernel"):
        scenario_from_config(raw)


def test_missing_field_is_reported():
    raw = load_raw("sedimentation-1d")
    del raw["species"][0]["support"]
    with pytest.raises(ScenarioParseError, match="support"):
        scenario_from_config(raw)


def test_unknown_scenario_name():
    with pytest.raises(ScenarioParseError, match="not found"):
        load_scenario("no-such-scenario")


def test_overrides_change_discretization():
    scn = scenario_from_config(load_config("sedimentation-1d", {"n": 17, "dt": 0.01, "horizon": 0.2}))
    assert len(scn.initial.species[0]) == 17
    assert scn.step.dt == 0.01
    assert scn.horizon == 0.2


def test_bad_override_rejected():
    with pytest.raises(ScenarioParseError, match="override"):
        RunConfig("sedimentation-1d", Path("/tmp/x"), {"bogus": 1})


def test_run_zero_field_outputs(tmp_path):
    status = run(RunConfig("zero-field-1d", tmp_path))
    assert status == 0
    traj = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,species,particle,x_1,weight"
    # static trajectory: first and last snapshot rows carry identical positions
    first = traj[1].split(",")
    last = traj[-1].split(",")
    assert first[3] == "-1"
    assert last[3] == "1.25"
    reports = (tmp_path / "reports.csv").read_text().splitlines()
    assert any("mass-conservation" in line and "true" in line for line in reports[1:])


def test_run_determinism_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(RunConfig("sedimentation-1d", out_a)) == 0
    assert run(RunConfig("sedimentation-1d", out_b)) == 0
    for rel in ("trajectory.csv", "reports.csv", "plot/particle-cloud.svg",
                "plot/w1-curve.csv"):
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


def test_emit_plotdata_kinds(tmp_path):
    scn = load_scenario("sedimentation-1d")
    rec = solve_direct(scn)

    files = emit_plotdata(rec, "particle-cloud", tmp_path)
    cloud = (tmp_path / "plot/particle-cloud.csv").read_text().splitlines()
    frames = {line.split(",")[0] for line in cloud[1:]}
    assert len(frames) == len(rec.times)

    emit_plotdata(rec, "w1-curve", tmp_path)
    curve = (tmp_path / "plot/w1-curve.csv").read_text().splitlines()
    values = [float(line.split(",")[1]) for line in curve[1:]]
    assert values[0] == 0.0  # distance of the initial state to itself
    assert values == [w1_vector(state, rec.states[0]) for state in rec.states]

    with pytest.raises(ValueError, match="unknown plot kind"):
        emit_plotdata(rec, "hologram", tmp_path)


def test_emit_picard_decay_monotone(tmp_path):
    scn = scenario_from_config(load_config("sedimentation-1d", {"mode": "picard"}))
    from nonlocalflow import solve_picard

    rec = solve_picard(scn)
    emit_plotdata(rec, "picard-decay", tmp_path)
    rows = (tmp_path / "plot/picard-decay.csv").read_text().splitlines()[1:]
    by_window = {}
    for line in rows:
        w, it, d = line.split(",")
        by_window.setdefault(w, []).append(float(d))
    for dists in by_window.values():
        assert all(b < a for a, b in zip(dists[1:], dists[2:]))  # decreasing after iteration 1


def test_density_profile_emission(tmp_path):
    scn = load_scenario("linear-local-compressive-1d")
    rec = solve(scn)
    emit_plotdata(rec, "density-profile", tmp_path)
    rows = (tmp_path / "plot/density-profile.csv").read_text().splitlines()
    assert rows[0] == "t,species,particle,x_1,density"
    assert len(rows) > 1


def test_cli_main_verbs(tmp_path):
    assert main(["scenarios"]) == 0
    assert main(["audit", "sedimentation-1d"]) == 0
    assert main(["audit", "no-such"]) == 1

    out = tmp_path / "run"
    assert main(["run", "zero-field-1d", "--out", str(out), "--emit", "trajectories"]) == 0
    assert (out / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sedimentation-1d", "--emit", "densities"],
         "density_tracking: --emit densities needs density_tracking true"),
        (["zero-field-1d"], "--n: acts only on a grid-1d or grid-2d species"),
        (["sedimentation-1d", "--emit", ""],
         "--emit: needs at least one of trajectories,densities,reports,plotdata"),
        (["sedimentation-1d", "--emit", ","],
         "--emit: needs at least one of trajectories,densities,reports,plotdata"),
    ],
    ids=["densities-untracked", "n-without-grid", "emit-empty", "emit-commas-only"],
)
def test_run_rejects_an_emit_or_override_with_nothing_to_act_on(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "solve", lambda scenario: pytest.fail("solved a rejected run"))
    out = tmp_path / "out"
    assert main(["run", *argv, "--n", "20", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_run_onto_an_existing_file_exits_2_before_solving(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve", lambda scenario: pytest.fail("solved a run with no out directory"))
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["run", "zero-field-1d", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --out: ")
    assert out.read_text() == ""


def test_audit_rejects_nan_kernel_scale(tmp_path, capsys):
    raw = load_raw("sedimentation-1d")
    raw["model"]["kernel"]["scale"] = float("nan")
    path = tmp_path / "nan-scale.json"
    path.write_text(json.dumps(raw))
    assert "NaN" in path.read_text()
    assert main(["audit", str(path)]) == 2
    assert "model.kernel: kernel scale must be finite" in capsys.readouterr().err
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2


def test_tiny_kernel_passes_audit_and_run(tmp_path):
    # kernel height 1e-13 puts every r sample within 1e-12 of every other:
    # the Lip_r check has no separated pair and is skipped, not crashed on
    raw = load_raw("sedimentation-1d")
    raw["model"]["kernel"]["height"] = 1e-13
    path = tmp_path / "tiny-kernel.json"
    path.write_text(json.dumps(raw))
    assert main(["audit", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0


def test_picard_run_with_a_subnormal_rate_finishes(tmp_path):
    # C = 1e-320: one window covers the horizon instead of a bisection on
    # an infinite bracket
    raw = load_raw("linear-local-compressive-1d")
    raw["model"]["alpha"] = -1e-320
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--mode", "picard", "--out", str(tmp_path / "out")]) == 0


NAN = float("nan")


@pytest.mark.parametrize(
    "field, fields",
    [
        ("horizon", {"horizon": -1.0}),
        ("dt", {"dt": NAN}),
        ("dt", {"dt": float("inf")}),
        ("horizon", {"horizon": NAN}),
        ("horizon", {"horizon": float("inf")}),
    ],
)
def test_non_finite_scenario_fields_rejected_with_field(tmp_path, capsys, field, fields):
    raw = {**load_raw("sedimentation-1d"), **fields}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{field} must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sedimentation-1d", "--dt", "nan"], "dt must be finite"),
        (["sedimentation-1d", "--dt", "-1"], "dt must be finite"),
        (["sedimentation-1d", "--horizon", "nan"], "horizon must be finite"),
        (["sedimentation-1d", "--horizon", "-1"], "horizon must be finite"),
        (["sedimentation-1d", "--n", "0"], "species[0]: "),
        (["pedestrian-2d", "--n", "0"], "species[0]: --n must be at least 1, got 0"),
        (["pedestrian-2d", "--n", "-5"], "species[0]: --n must be at least 1, got -5"),
        (["sedimentation-1d", "--seed", "-1"], "seed must be an integer and from 0 to 2^32 - 1, got -1"),
        (["sedimentation-1d", "--seed", "4294967296"], "seed must be an integer and from 0 to 2^32 - 1"),
    ],
)
def test_bad_run_overrides_exit_2_with_field(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(["run", *argv, "--out", str(out), "--emit", "trajectories"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "speed", [{"r_crit": NAN}, {"r_crit": 0.0}, {"v_max": NAN}, {"v_max": float("inf")}]
)
def test_bad_speed_law_rejected_with_field(tmp_path, capsys, speed):
    raw = load_raw("pedestrian-2d")
    raw["model"]["speed"].update(speed)
    raw["checks"] = [{"type": "mass-conservation"}]
    path = tmp_path / "bad-speed.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    (field,) = speed
    assert f"model.speed: {field} must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, change",
    [
        ("predator-prey-1d", lambda model: model["repulsion"].update(scale=1e-310)),  # kernel lip h/s overflows
        ("linear-local-expansive-1d", lambda model: model.update(alpha=1e308)),  # sup alpha * radius overflows
    ],
)
@pytest.mark.parametrize("verb", ["audit", "run"])
def test_a_model_whose_derived_bound_is_not_finite_exits_2(tmp_path, capsys, name, change, verb):
    raw = load_raw(name)
    change(raw["model"])
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw))
    argv = [verb, str(path)] + (["--out", str(tmp_path / "out")] if verb == "run" else [])
    assert main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: model:") and line.endswith("got inf")


def test_a_step_above_the_step_guard_exits_2_at_load(tmp_path, capsys):
    # sedimentation-1d has C = 1 and a horizon of 0.5: dt 1.0 is one step of 0.5
    out = tmp_path / "out"
    assert main(["run", "sedimentation-1d", "--dt", "1.0", "--out", str(out)]) == 2
    assert not out.exists()
    path = tmp_path / "dt-1.json"
    path.write_text(json.dumps({**load_raw("sedimentation-1d"), "dt": 1.0}))
    assert main(["audit", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    for line in lines:
        for part in ("dt 1.0", "a step of 0.5", "C = 1.0", "the largest allowed step is 0.1"):
            assert part in line
    # dt * C = 0.1 is at the limit
    assert main(["run", "sedimentation-1d", "--dt", "0.1", "--out", str(out), "--emit", "trajectories"]) == 0


def test_odd_ramp_params_rejected_with_field(tmp_path):
    raw = load_raw("predator-prey-1d")
    raw["model"]["attraction"]["height"] = float("inf")
    with pytest.raises(ScenarioParseError, match="model.attraction: kernel height"):
        scenario_from_config(raw)


def test_cli_w1_verb(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("x_1,weight\n0.0,1.0\n")
    b.write_text("x_1,weight\n3.0,1.0\n")
    assert main(["w1", str(a), str(b)]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(3.0)
    # coordinates are read by name: (1, 0) against (0, 5)
    a.write_text("x_1,x_2,weight\n1,0,1\n")
    b.write_text("x_2,x_1,weight\n5,0,1\n")
    assert main(["w1", str(a), str(b)]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(np.sqrt(26.0), rel=1e-15)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "line 1: need columns x_1..x_d,weight"),
        ("x_1,weight\n0.0,1.0\n2.0\n", "line 3: 1 fields, header has 2"),
        ("x_1,weight\n0.0,1.0,5.0\n", "line 2: 3 fields, header has 2"),
        ("x_1,weight\nabc,1.0\n", "line 2: could not convert string to float: 'abc'"),
        ("x_1,weight\nnan,1\n", "line 2: positions must be finite and the weight finite and positive"),
        ("x_1,weight\n0.0,-1\n", "line 2: positions must be finite and the weight finite and positive"),
        ("weight\n1\n", "line 1: need columns x_1..x_d,weight"),
        ("x_1,x_2,weight\n0.0,0.0,1.0\n", "line 1: dimension 2 differs from dimension 1 of {good}"),
        ("x_1,weight\n", "line 1: header has no particle rows below it"),
        ("x_1,x_3,weight\n0.0,0.0,1.0\n", "line 1: need columns x_1..x_d,weight"),
        ("x_1,x_1,weight\n0.0,0.0,1.0\n", "line 1: need columns x_1..x_d,weight"),
        ("x_1,weight,weight\n0,1,5\n", "line 1: column 'weight' appears more than once"),
    ],
    ids=["empty", "short-row", "long-row", "non-numeric", "nan-cell", "negative-weight",
         "no-position-column", "dimension-mismatch", "no-particle-rows", "gap", "duplicate",
         "repeated-column"],
)
def test_cli_w1_rejects_a_malformed_measure_csv(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.csv"
    good = tmp_path / "good.csv"
    bad.write_text(text)
    good.write_text("x_1,weight\n3.0,1.0\n")
    assert main(["w1", str(bad), str(good)]) == 2
    assert capsys.readouterr().err == f"error: {bad}, {message.format(good=good)}\n"


def test_audit_error_carries_witness():
    # the spring's sup bound holds on |x| <= 3; declared on |x| <= 30, the
    # audit samples a point beyond 3 that exceeds it
    spring = load_scenario("predator-decoupled-1d").model.fields[1]
    assert spring.domain_radius == 3.0
    with pytest.raises(AuditError, match=r"velocity sup audit failed: \|V\(0.0, \[-?\d"):
        audit_velocity_field(replace(spring, domain_radius=30.0), box_radius=30.0, r_radius=1.0)


def test_density_profile_is_written_once(tmp_path, monkeypatch):
    kinds = []
    real = cli.emit_plotdata

    def counted(record, kind, *args, **kwargs):
        kinds.append(kind)
        return real(record, kind, *args, **kwargs)

    monkeypatch.setattr(cli, "emit_plotdata", counted)
    config = RunConfig("linear-local-compressive-1d", tmp_path, emit=("densities", "plotdata"))
    assert run(config) == 0
    assert kinds.count("density-profile") == 1
    assert (tmp_path / "plot" / "density-profile.csv").exists()


def test_non_finite_state_error_names_the_scenario(tmp_path, capsys, monkeypatch):
    real = cli.scenario_from_config

    def nan_after_the_first_step(raw):
        scn = real(raw)
        dt = scn.step.dt
        field = VelocityField(
            1, 1, lambda t, xs, rs: xs * (np.nan if t > 1.25 * dt else 0.0), 1.0, 0.0, 0.0
        )
        return replace(scn, model=VelocityModel((field,), scn.model.kernels))

    monkeypatch.setattr(cli, "scenario_from_config", nan_after_the_first_step)
    out = str(tmp_path / "out")
    assert main(["run", "zero-field-1d", "--out", out, "--emit", "trajectories"]) == 3
    err = capsys.readouterr().err
    assert "non-finite state after step index 1 (t = 0.2" in err
    for item in ('"scenario": "zero-field-1d"', '"seed": 0', '"N": 5', '"T": 1.0', '"dt": 0.1'):
        assert item in err


def test_picard_over_the_pair_cap_runs_without_the_simplex(tmp_path, monkeypatch):
    # 12 particles: exact W1 between two iterates would need 144 pairs, over a
    # cap of 100, but picard compares iterates particle by particle
    monkeypatch.setattr(wasserstein, "DEFAULT_PAIR_CAP", 100)
    calls = []
    monkeypatch.setattr(_accel, "transport_simplex", lambda *a, **k: calls.append(a))
    out = tmp_path / "out"
    argv = ["run", "pedestrian-2d", "--n", "16", "--mode", "picard", "--emit", "trajectories"]
    assert main([*argv, "--out", str(out)]) == 0
    assert calls == [] and (out / "trajectory.csv").exists()


def test_pair_cap_fails_the_check_and_skips_the_w1_plot(tmp_path, capsys, monkeypatch):
    # --n 16 puts 12 particles in the disk: every exact 2D W1 has 144 pairs, over a cap of 100
    monkeypatch.setattr(wasserstein, "DEFAULT_PAIR_CAP", 100)
    out = tmp_path / "out"
    assert main(["run", "pedestrian-2d", "--n", "16", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "skipped plot w1-curve: 12x12 pairs exceed the cap 100; use w1_1d in 1D or subsample"
    ]
    assert "[pass] mass-conservation" in captured.out
    assert "[FAIL] stability-initial: lhs=nan" in captured.out
    rows = (out / "reports.csv").read_text().splitlines()
    assert rows[1].startswith("mass-conservation,") and rows[1].count("true") == 1
    assert rows[2].startswith("stability-initial,nan,nan,1.05,false,")
    assert "exceed the cap 100" in rows[2]
    assert (out / "trajectory.csv").exists()
    assert sorted(p.name for p in (out / "plot").iterdir()) == ["particle-cloud.csv", "particle-cloud.svg"]


# One command in a fresh interpreter, then whether numpy.random and scipy
# were loaded.
_FRESH_MAIN = (
    "import sys\n"
    "from nonlocalflow.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('numpy.random' in sys.modules, 'scipy' in sys.modules)\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "sedimentation-1d"],
        ["run", "sedimentation-1d", "--mode", "picard"],
        ["run", "pedestrian-2d"],
        ["run", "pedestrian-2d", "--mode", "picard"],
        ["audit", "pedestrian-2d"],
        ["w1", "a.csv", "b.csv"],
    ],
    ids=["run-1d", "run-1d-picard", "run-2d", "run-2d-picard", "audit-2d", "w1-2d"],
)
def test_a_command_never_loads_numpy_random(tmp_path, argv):
    # a subprocess: pytest and hypothesis may load numpy.random themselves
    (tmp_path / "a.csv").write_text("x_1,x_2,weight\n0.0,0.0,1.0\n")
    (tmp_path / "b.csv").write_text("x_1,x_2,weight\n3.0,4.0,0.5\n1.0,0.0,0.5\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_MAIN, *argv], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert out.returncode == 0, out.stderr
    # only suite needs scipy, whose import takes about as long as a run
    assert out.stdout.splitlines()[-1] == "False False"
