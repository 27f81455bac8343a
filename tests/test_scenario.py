import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nonlocalflow import scenario, velocity
from nonlocalflow.cli import main
from nonlocalflow.kernels import AuditError, kernel_library
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


def _drifting_predator(raw):
    raw.update(load_raw("predator-prey-1d"))
    raw["model"]["phi"] = {"type": "drift", "vector": [1.0]}


@pytest.mark.parametrize(
    "edit, message",
    [
        (_rename(["model", "kernel"], "kernal"), "unknown field model.kernal; did you mean 'kernel'?"),
        (_rename(["horizon"], "horizn"), "unknown field horizn; did you mean 'horizon'?"),
        (_set(["checks", 1, "pairs"], -1), "checks[1]: pairs must be an integer and at least 1"),
        (_set(["density_tracking"], "no"), "scenario: density_tracking must be true or false"),
        (_set(["seed"], 1.7), "scenario: seed must be an integer"),
        (_set(["species", 0, "particles"], 0), "species[0]: particles must be an integer and at least 1"),
        (_set(["species", 0, "mass"], NAN), "species[0]: mass must be finite and positive"),
        (_set(["species", 0, "support"], [1.0, -1.0]), "species[0]: support must be"),
        (_set(["model", "type"], "sediment"), "model: type must be one of"),
        (
            _set(["model", "kernel", "name"], "cosine-lobe"),
            "model.kernel: kernel name must be one of 'tent', 'bump-poly', 'constant', got 'cosine-lobe'",
        ),
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
        (_drifting_predator, "model.phi: type must be one of 'pursuit', 'spring', got 'drift'"),
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
        ("sedimentation-1d", _set(["picard"], {"sigma": 0.5}), "unknown field picard; "),
        ("sedimentation-1d", _set(["picard"], {"tol": 1e-9, "max_iter": 60}), "unknown field picard; "),
        ("linear-local-compressive-1d", _set(["audit_radius"], 4.0), "unknown field audit_radius; "),
        ("sedimentation-1d", _set(["species", 0, "resolution"], 64), "unknown field species[0].resolution; "),
        ("pedestrian-2d", _set(["species", 0, "resolution"], 24), "unknown field species[0].resolution; "),
    ],
    ids=[
        "courant", "h_fd", "scheme", "dim", "grid-2d-profile", "stability-initial.eps",
        "stability-initial.slack", "linfty-growth.slack", "lemma-stability.eps", "flow-lipschitz.tolerance",
        "picard.sigma", "picard", "audit_radius", "grid-1d-resolution", "grid-2d-resolution",
    ],
)
def test_retired_settings_are_unknown_fields(tmp_path, capsys, name, edit, message):
    # the RK4 step guard, the finite-difference step, the grid-1d scheme, the
    # linear-local dimension, the grid-2d profile, each check's gate and
    # perturbation size, the Picard block, the audit box and the grid sizes
    # are fixed or derived; a file cannot set them
    raw = load_raw(name)
    edit(raw)
    _write_and_check_both_verbs(tmp_path, capsys, raw, message)


@pytest.mark.parametrize(
    "name, edit, fields",
    [
        ("pedestrian-2d", _set(["species", 0, "radius"], 1e300), "center [0.0, 0.0], radius 1e+300, mass 0.5"),
        ("sedimentation-1d", _set(["species", 0, "support"], [-1e308, 1e308]), "support [-1e+308, 1e+308], mass 1.0"),
        ("sedimentation-1d", _set(["species", 0, "support"], [0.0, 1e-310]), "support [0.0, 1e-310], mass 1.0"),
    ],
    ids=["radius", "wide-support", "narrow-support"],
)
def test_a_grid_species_that_overflows_exits_2_and_names_its_field(tmp_path, capsys, name, edit, fields):
    # rejected before numpy builds the grid, so no RuntimeWarning (an error
    # in these tests) is raised first
    raw = load_raw(name)
    edit(raw)
    _write_and_check_both_verbs(tmp_path, capsys, raw, f"species[0]: with {fields}, a grid cell vanishes")


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
    assert cfg["density_tracking"] is False
    assert all(isinstance(x, float) and not math.isnan(x) for x in cfg["species"][0]["weights"])


# the declared domain |x_a| <= R of each field of a bundled scenario that has one
DOMAINS = {
    "linear-local-compressive-1d": (4.0,),
    "linear-local-expansive-1d": (4.0,),
    "predator-decoupled-1d": (math.inf, 3.0),
}


@pytest.mark.parametrize("name", bundled_scenarios())
def test_each_field_is_audited_on_the_data_box_cut_to_its_domain(monkeypatch, name):
    boxes = []

    def sample(low, high, *rest):
        if low[0] < 0:  # an x box; r is drawn from the unit box
            assert np.all(high == high[0]) and np.all(low == -high)
            boxes.append(float(high[0]))
        return real(low, high, *rest)

    real = velocity.sample_box
    monkeypatch.setattr(velocity, "sample_box", sample)
    scn = scenario_from_config(load_raw(name))
    span = max(float(np.abs(m.positions).max()) for m in scn.initial.species)
    box = span + scn.model.sup_bound * scn.horizon + 1.0
    domains = DOMAINS.get(name, (math.inf,) * scn.model.k)
    assert tuple(f.domain_radius for f in scn.model.fields) == domains
    assert all(r < box or r == math.inf for r in domains)  # so each declared domain is the cut
    # two samples of x (x and y) per field; the kernels derive their bounds
    assert boxes == [min(box, r) for r in domains for _ in "xy"]


def _linear_local_on(raw, radius):
    raw["model"]["domain_radius"] = radius


def _spring_on(raw, radius):
    raw["model"]["phi"]["domain_radius"] = radius


@pytest.mark.parametrize(
    "name, shrink, radius, witness",
    [
        ("linear-local-expansive-1d", _linear_local_on, 0.5, r"species\[0\] at t = 0.0 has a particle at x = \[0.749"),
        ("predator-decoupled-1d", _spring_on, 0.1, r"species\[1\] at t = 0.0 has a particle at x = \[1.5\]"),
    ],
    ids=["linear-local", "spring"],
)
def test_a_domain_that_misses_the_initial_particles_fails_at_load(tmp_path, capsys, name, shrink, radius, witness):
    # cut to such a domain the sampled box would miss the particles, so the
    # declared sup could be false where they move
    raw = load_raw(name)
    shrink(raw, radius)
    with pytest.raises(AuditError, match=witness + rf".*outside the domain \|x_a\| <= {radius} "):
        scenario_from_config(raw)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    assert main(["audit", str(path)]) == 1
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "outside the domain" in capsys.readouterr().err


def test_pedestrian_with_its_lip_x_halved_fails_the_audit_at_load(monkeypatch):
    # on the data box (radius 2.19) the pull toward the target bends enough
    # to witness the halved declaration
    real = scenario.pedestrian_field

    def halved(*args, **kwargs):
        model = real(*args, **kwargs)
        (field,) = model.fields
        return replace(model, fields=(replace(field, lip_x=field.lip_x / 2),))

    monkeypatch.setattr(scenario, "pedestrian_field", halved)
    with pytest.raises(AuditError, match="velocity Lip_x audit failed"):
        scenario_from_config(load_raw("pedestrian-2d"))


def test_the_prey_self_kernel_is_entry_0_0_and_counts_in_row_0(tmp_path):
    raw = load_raw("predator-prey-1d")
    raw["model"]["prey_self_kernel"] = {"name": "tent", "scale": 0.5, "height": 0.2}
    kernels = scenario_from_config(raw).model.kernels
    eta00, repulsion = kernels.entries[0]
    assert eta00 == kernel_library("tent", 1, 0.5, 0.2)
    # row 0 sums the prey's own kernel (Lip 0.4) and the repulsion (Lip 0.6),
    # which outweighs row 1's attraction (Lip 0.4)
    assert kernels.lip_x == eta00.lip_x + repulsion.lip_x
    assert kernels.lip_x > sum(kn.lip_x for kn in kernels.entries[1])
    path = tmp_path / "self.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
