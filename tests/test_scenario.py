import json
import math
from pathlib import Path

import pytest

from nonlocalflow.cli import main
from nonlocalflow.scenario import (
    OPTIONAL,
    REQUIRED,
    SCENARIO,
    ScenarioParseError,
    bundled_scenarios,
    load_raw,
    scenario_from_config,
    validate,
)

README = Path(__file__).resolve().parents[1] / "README.md"
NAN = float("nan")


def _rows(fields: dict, prefix: str = ""):
    """The table as README rows: path, type, range or choices, default."""
    for key, f in fields.items():
        path = prefix + key
        default = f.default if f.default in (REQUIRED, OPTIONAL) else json.dumps(f.default)
        if f.type in ("variant", "list"):
            yield path, f.type, ", ".join(f.fields), default
            for name, sub in f.fields.items():
                yield from _rows(sub, f"{path}[{name}].")
        elif f.type == "object":
            yield path, f.type, "", default
            yield from _rows(f.fields, path + ".")
        else:
            yield path, f.type, f.range or ", ".join(map(str, f.choices)), default


def test_readme_lists_every_field_of_the_table():
    text = README.read_text()
    section = text[text.index("## Scenario files"):]
    section = section[: section.index("\n## ", 1)]
    documented = [
        tuple(cell.strip().strip("`") for cell in line.strip("|").split("|"))
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert documented == list(_rows(SCENARIO.fields))


def test_every_bundled_scenario_validates_to_itself():
    for name in bundled_scenarios():
        cfg = validate(load_raw(name))
        assert validate(cfg) == cfg


def test_misspelt_kernel_suggests_kernel():
    raw = load_raw("sedimentation-1d")
    raw["model"]["kernal"] = raw["model"].pop("kernel")
    with pytest.raises(ScenarioParseError, match=r"model\.kernal; did you mean 'kernel'\?"):
        scenario_from_config(raw)


def _set(path, value):
    """An edit that sets ``value`` at ``path`` (keys and list indices)."""

    def edit(raw):
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return edit


def _rename(path, new):
    def edit(raw):
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[new] = node.pop(path[-1])

    return edit


def _twice(name):
    """An edit that makes the file bundled ``name`` with its species listed twice."""

    def edit(raw):
        raw.clear()
        raw.update(load_raw(name))
        raw["species"].append(raw["species"][0])

    return edit


def _three_particle_predator(raw):
    raw.update(load_raw("predator-prey-1d"))
    raw["species"][1] = {**raw["species"][0], "particles": 3}


@pytest.mark.parametrize(
    "edit, message",
    [
        (_rename(["model", "kernel"], "kernal"), "unknown field model.kernal; did you mean 'kernel'?"),
        (_rename(["horizon"], "horizn"), "unknown field horizn; did you mean 'horizon'?"),
        (_set(["checks", 1, "pairs"], -1), "checks[1]: pairs must be an integer and at least 1"),
        (_set(["density_tracking"], "no"), "scenario: density_tracking must be true or false"),
        (_set(["seed"], 1.7), "scenario: seed must be an integer"),
        (_set(["species", 0, "resolution"], 0), "species[0]: resolution must be an integer and at least 1"),
        (_set(["species", 0, "mass"], NAN), "species[0]: mass must be finite and positive"),
        (_set(["species", 0, "support"], [1.0, -1.0]), "species[0]: support must be"),
        (_set(["model", "type"], "sediment"), "model: type must be one of"),
        (_set(["checks"], [{"type": "linfty-growth"}]), "checks[0]: linfty-growth needs density_tracking true"),
        (_set(["species"], []), "scenario: species must hold at least one species"),
        (
            lambda raw: raw["species"].append({"type": "dirac", "point": [0.0, 0.0]}),
            "species[1]: dimension 2 differs from species[0]'s 1",
        ),
        (
            lambda raw: raw.update(
                load_raw("zero-field-1d"), density_tracking=True, checks=[{"type": "linfty-growth"}]
            ),
            "checks[0]: linfty-growth needs a grid-1d or grid-2d species",
        ),
        (_twice("sedimentation-1d"), "species: a sedimentation model moves exactly one species, got 2"),
        (_twice("pedestrian-2d"), "species: a pedestrian model moves exactly one species, got 2"),
        (
            _twice("linear-local-compressive-1d"),
            "species: a linear-local model moves exactly one species, got 2",
        ),
        (_twice("zero-field-1d"), "species: a constant-drift model moves exactly one species, got 2"),
        (
            lambda raw: raw.update(load_raw("linear-local-compressive-1d"), model={
                "type": "linear-local", "alpha": -1.0, "domain_radius": 4.0, "dim": 2
            }),
            "unknown field model.dim",
        ),
        (
            _set(["model"], {"type": "constant-drift", "vector": [1.0, 0.0]}),
            "scenario: model moves 1 species in dimension 2, initial data has 1 in dimension 1",
        ),
        (
            _three_particle_predator,
            "model.dirac-coupling: gallery form needs one 1D prey species "
            "plus one predator species of one particle, got [40, 3] particles",
        ),
    ],
)
def test_bad_scenario_files_exit_2_before_solving(tmp_path, capsys, edit, message):
    raw = load_raw("sedimentation-1d")
    edit(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _write_and_check_both_verbs(tmp_path, capsys, raw, message):
    """``raw`` as a file: ``audit`` and ``run`` each exit 2 with ``message``
    and solve nothing."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["audit", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("sedimentation-1d", _set(["courant"], 0.1), "unknown field courant"),
        ("sedimentation-1d", _set(["h_fd"], 1e-4), "unknown field h_fd"),
        ("sedimentation-1d", _set(["species", 0, "scheme"], "quantile-1d"), "unknown field species[0].scheme"),
        ("linear-local-compressive-1d", _set(["model", "dim"], 1), "unknown field model.dim"),
        ("pedestrian-2d", _set(["species", 0, "profile"], "cosine-bump"), "unknown field species[0].profile"),
        ("sedimentation-1d", _set(["checks", 1, "eps"], 0.05), "unknown field checks[1].eps"),
        ("sedimentation-1d", _set(["checks", 1, "slack"], 1.05), "unknown field checks[1].slack"),
        ("linear-local-compressive-1d", _set(["checks", 1, "slack"], 1.05), "unknown field checks[1].slack"),
        (
            "sedimentation-1d",
            _set(["checks"], [{"type": "lemma-stability", "eps": 0.05}]),
            "unknown field checks[0].eps",
        ),
        ("sedimentation-1d", _set(["checks", 2, "tolerance"], 0.01), "unknown field checks[2].tolerance"),
    ],
    ids=[
        "courant", "h_fd", "scheme", "dim", "grid-2d-profile", "stability-initial.eps",
        "stability-initial.slack", "linfty-growth.slack", "lemma-stability.eps", "flow-lipschitz.tolerance",
    ],
)
def test_retired_settings_are_unknown_fields(tmp_path, capsys, name, edit, message):
    # the RK4 step guard, the finite-difference step, the grid-1d scheme, the
    # linear-local dimension, the grid-2d profile and each check's gate and
    # perturbation size are fixed; a file cannot set them
    raw = load_raw(name)
    edit(raw)
    _write_and_check_both_verbs(tmp_path, capsys, raw, message)


def test_a_file_cannot_loosen_a_gate(tmp_path, capsys):
    # every report of this file would pass vacuously if its values were read
    raw = load_raw("sedimentation-1d")
    raw["checks"][1]["slack"] = 1e300
    raw["checks"][2]["tolerance"] = 1e300
    raw["checks"].append({"type": "lemma-stability", "eps": 1e300})
    _write_and_check_both_verbs(tmp_path, capsys, raw, "unknown field checks[1].slack")


@pytest.mark.parametrize(
    "direction, message",
    [
        ({"type": "constant", "vector": [1.0]}, "model.direction: vector has length 1"),
        ({"type": "toward-point", "target": [2.0, 0.0, 1.0]}, "model.direction: target has length 3"),
    ],
    ids=["constant", "toward-point"],
)
def test_pedestrian_direction_of_another_dimension_exits_2(tmp_path, capsys, direction, message):
    raw = load_raw("pedestrian-2d")
    raw["model"]["direction"] = direction
    _write_and_check_both_verbs(tmp_path, capsys, raw, f"{message}, the species' dimension is 2")


def test_defaults_are_filled_in():
    raw = load_raw("two-particle-sedimentation-1d")
    cfg = validate(raw)
    assert cfg["picard"] == {"tol": 1e-9, "max_iter": 60, "sigma": 0.5}
    assert cfg["density_tracking"] is False
    assert "audit_radius" not in cfg  # optional, computed from the data
    assert all(isinstance(x, float) and not math.isnan(x) for x in cfg["species"][0]["weights"])
