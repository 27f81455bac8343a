"""Scenario files: one table of their fields, one walker, and the builders.

A scenario file is JSON.  :data:`SCENARIO` declares every field it may hold
with its type, range and default; an object that picks a gallery entry by
its ``type`` (the model, a species, a check, a direction or a phi) declares
the fields of each entry.  :func:`validate` checks a parsed file against
the table before anything is built.  An unknown field is rejected with its
path and the nearest known name.  A value of the wrong type, a non-finite
number and a value out of range are rejected with their path, and so is a
break of a rule between fields (at least one species, one dimension for
all species and the pedestrian direction, one species for a one-species
model, ``linfty-growth`` only with density tracking and a grid species).  Every
absent optional field gets its default, so the builders read only
validated values.
"""

from __future__ import annotations

import difflib
import json
import math
import reprlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .flow import StepControl
from .kernels import KernelMatrix, kernel_library, odd_ramp_kernel, scale_kernel, zero_kernel
from .measures import (
    GridAxis,
    GridDensity,
    MeasureVector,
    ParticleMeasure,
    dirac,
    particles_from_density,
    uniform_density_1d,
)
from .solver import PicardParams, Scenario
from .velocity import (
    VelocityField,
    VelocityModel,
    audit_model,
    congestion_speed,
    constant_direction,
    constant_drift_field,
    linear_local_field,
    pedestrian_field,
    sedimentation_field,
    toward_point,
)

SCHEMA_VERSION = 1
# the overrides ``run`` accepts, with their types
OVERRIDES = {"n": int, "dt": float, "horizon": float, "mode": str, "seed": int}


class ScenarioParseError(ValueError):
    """Configuration file rejected; message names the offending field."""


class ScenarioNotFoundError(ScenarioParseError):
    """No scenario file or bundled scenario of that name."""


REQUIRED = "required"
OPTIONAL = "optional"  # may be absent, and no default is filled in

# range -> test, applied to a number, or to a vector as a whole array
RANGES = {
    "positive": lambda x: x > 0,
    "at least 0": lambda x: x >= 0,
    "at least 1": lambda x: x >= 1,
    "in (0, 1)": lambda x: (x > 0) & (x < 1),
    "of length 2": lambda v: v.size == 2,
    "of length 2, increasing": lambda v: v.size == 2 and v[0] < v[1],
}


@dataclass(frozen=True)
class Field:
    """One field of a scenario file.

    ``type`` is number, integer, boolean, string, vector, points, object,
    variant (an object whose ``type`` picks its fields from ``fields``) or
    list (of variants).  ``noun`` prefixes the names of an object's fields in
    errors, as the library's own checks name them (``kernel scale``,
    ``picard.tol``).
    """

    type: str
    default: object = REQUIRED
    range: str | None = None
    choices: tuple = ()
    fields: dict | None = None
    noun: str = ""


def _positive(default=REQUIRED) -> Field:
    return Field("number", default, "positive")


def _count(default=REQUIRED) -> Field:
    return Field("integer", default, "at least 1")


_VECTOR = Field("vector")
_KERNEL_FIELDS = {
    "name": Field("string", choices=("tent", "bump-poly", "cosine-lobe", "constant")),
    "scale": _positive(1.0),
    "height": _positive(1.0),
}
_KERNEL = Field("object", fields=_KERNEL_FIELDS, noun="kernel ")
_ODD_RAMP = Field("object", fields={"scale": _positive(), "height": _positive()}, noun="kernel ")
MODELS = {
    "sedimentation": {"kernel": _KERNEL},
    "pedestrian": {
        "kernel": _KERNEL,
        "speed": Field("object", {}, fields={"v_max": _positive(1.0), "r_crit": _positive(1.0)}),
        "direction": Field(
            "variant", fields={"constant": {"vector": _VECTOR}, "toward-point": {"target": _VECTOR}}
        ),
    },
    "linear-local": {
        "alpha": Field("number"),
        "domain_radius": _positive(),
    },
    "constant-drift": {"vector": _VECTOR},
    "dirac-coupling": {
        "repulsion": _ODD_RAMP,
        "attraction": _ODD_RAMP,
        "prey_self_kernel": Field("object", OPTIONAL, fields=_KERNEL_FIELDS, noun="kernel "),
        "phi": Field("variant", fields={
            "pursuit": {},
            "spring": {"target": _VECTOR, "rate": Field("number", range="at least 0"),
                       "domain_radius": _positive(5.0)},
            "drift": {"vector": _VECTOR},
        }),
    },
}
SPECIES = {
    "grid-1d": {
        "support": Field("vector", range="of length 2, increasing"),
        "resolution": _count(64),
        "profile": Field("string", "uniform", choices=("uniform", "cosine-bump")),
        "particles": _count(),
        "mass": _positive(1.0),
    },
    "grid-2d": {
        "center": Field("vector", range="of length 2"),
        "radius": _positive(),
        "resolution": _count(24),
        "particles_per_axis": _count(8),
        "mass": _positive(1.0),
    },
    "dirac": {"point": _VECTOR, "weight": _positive(1.0)},
    "particles": {"positions": Field("points"), "weights": Field("vector", range="positive")},
}
# a check's gate and perturbation size are fixed in the harness
CHECKS = {
    "mass-conservation": {},
    "stability-initial": {"pairs": _count(3)},
    "linfty-growth": {},
    "lemma-stability": {},
    "flow-lipschitz": {},
}
_PICARD = {"tol": _positive(1e-9), "max_iter": _count(60), "sigma": Field("number", 0.5, "in (0, 1)")}
SCENARIO = Field("object", fields={
    "schema": Field("integer", choices=(SCHEMA_VERSION,)),
    "name": Field("string"),
    "horizon": _positive(),
    "dt": _positive(),
    "mode": Field("string", "direct", choices=("direct", "picard")),
    "density_tracking": Field("boolean", False),
    "seed": Field("integer", 0, "at least 0"),
    "audit_radius": _positive(OPTIONAL),  # absent: from the data
    "picard": Field("object", {}, fields=_PICARD, noun="picard."),
    "model": Field("variant", fields=MODELS),
    "species": Field("list", fields=SPECIES),
    "checks": Field("list", [], fields=CHECKS),
})
# the gallery models that move exactly one species
ONE_SPECIES_MODELS = ("sedimentation", "pedestrian", "linear-local", "constant-drift")
# run --n sets, per species type, this field to this function of n
N_OVERRIDE = {
    "grid-1d": ("particles", lambda n: n),
    "grid-2d": ("particles_per_axis", lambda n: max(1, round(math.sqrt(n)))),
}


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _vector(v) -> bool:
    return isinstance(v, list) and bool(v) and all(map(_finite, v))


# type -> (test, what it must be, conversion of a value that passed)
_LEAVES = {
    "boolean": (lambda v: isinstance(v, bool), "true or false", bool),
    "string": (lambda v: isinstance(v, str), "a string", str),
    "integer": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer", int),
    "number": (_finite, "finite", float),
    "vector": (_vector, "a list of finite numbers", lambda v: [float(x) for x in v]),
    "points": (
        lambda v: isinstance(v, list) and bool(v) and all(_vector(r) and len(r) == len(v[0]) for r in v),
        "a list of equal-length lists of finite numbers",
        lambda v: [[float(x) for x in r] for r in v],
    ),
}


def _listed(names) -> str:
    return ", ".join(repr(n) for n in names)


def _walk(value, f: Field, parent: str, key: str, noun: str = ""):
    """``value`` checked against ``f``, defaults filled; it sits at ``parent.key``."""
    path = f"{parent}.{key}" if parent and key else parent or key

    def fail(problem: str):
        name = f"{noun}{key} " if key else ""
        raise ScenarioParseError(f"{parent or 'scenario'}: {name}{problem}, got {reprlib.repr(value)}")

    if f.type in _LEAVES:
        test, what, convert = _LEAVES[f.type]
        if f.choices:
            what = f"one of {_listed(f.choices)}"
        if (
            not test(value)
            or (f.choices and value not in f.choices)
            or (f.range and not np.all(RANGES[f.range](np.asarray(value))))
        ):
            fail(f"must be {what} and {f.range}" if f.range else f"must be {what}")
        return convert(value)
    if f.type == "list":
        if not isinstance(value, list):
            fail("must be a list")
        item = Field("variant", fields=f.fields)
        return [_walk(v, item, "", f"{path}[{i}]") for i, v in enumerate(value)]
    if not isinstance(value, dict):
        fail("must be an object")
    fields = f.fields
    if f.type == "variant":
        choice = value.get("type")
        if not isinstance(choice, str) or choice not in f.fields:
            raise ScenarioParseError(f"{path}: type must be one of {_listed(f.fields)}, got {choice!r}")
        fields = {"type": Field("string"), **f.fields[choice]}
    for name in value:
        if name not in fields:
            near = difflib.get_close_matches(name, fields, n=1)
            hint = f"did you mean {near[0]!r}?" if near else f"known fields: {_listed(fields)}"
            raise ScenarioParseError(f"unknown field {path + '.' if path else ''}{name}; {hint}")
    out = {}
    for name, sub in fields.items():
        if name in value:
            out[name] = _walk(value[name], sub, path, name, f.noun)
        elif sub.default is REQUIRED:
            raise ScenarioParseError(f"{path or 'scenario'}: missing field {name!r}")
        elif sub.default is not OPTIONAL:
            out[name] = _walk(sub.default, sub, path, name, f.noun)
    return out


# species type -> its spatial dimension
_SPECIES_DIM = {
    "grid-1d": lambda sp: 1,
    "grid-2d": lambda sp: 2,
    "dirac": lambda sp: len(sp["point"]),
    "particles": lambda sp: len(sp["positions"][0]),
}


def _check_rules(cfg: dict) -> None:
    """The rules between fields that the table cannot state."""
    if not cfg["species"]:
        raise ScenarioParseError("scenario: species must hold at least one species, got []")
    dims = [_SPECIES_DIM[sp["type"]](sp) for sp in cfg["species"]]
    for i, dim in enumerate(dims):
        if dim != dims[0]:
            raise ScenarioParseError(f"species[{i}]: dimension {dim} differs from species[0]'s {dims[0]}")
    model = cfg["model"]
    if model["type"] in ONE_SPECIES_MODELS and len(dims) != 1:
        raise ScenarioParseError(f"species: a {model['type']} model moves exactly one species, got {len(dims)}")
    if model["type"] == "pedestrian":
        way = model["direction"]
        key = "vector" if way["type"] == "constant" else "target"
        if len(way[key]) != dims[0]:
            raise ScenarioParseError(
                f"model.direction: {key} has length {len(way[key])}, the species' dimension is {dims[0]}"
            )
    grids = any(sp["type"] in ("grid-1d", "grid-2d") for sp in cfg["species"])
    for i, check in enumerate(cfg["checks"]):
        if check["type"] == "linfty-growth" and not cfg["density_tracking"]:
            raise ScenarioParseError(f"checks[{i}]: linfty-growth needs density_tracking true")
        if check["type"] == "linfty-growth" and not grids:
            raise ScenarioParseError(f"checks[{i}]: linfty-growth needs a grid-1d or grid-2d species")


def validate(raw) -> dict:
    """``raw`` checked against :data:`SCENARIO` and the rules between its
    fields, with every default filled in."""
    cfg = _walk(raw, SCENARIO, "", "")
    _check_rules(cfg)
    return cfg


def validate_checks(checks) -> list[dict]:
    """A scenario's ``checks`` list checked against :data:`CHECKS`, defaults filled in."""
    return _walk(checks, SCENARIO.fields["checks"], "", "checks")


# ---------------------------------------------------------------------------
# builders: validated config -> library objects
# ---------------------------------------------------------------------------


def _cosine_bump_1d(a: float, b: float, count: int) -> GridDensity:
    h = (b - a) / count
    axis = GridAxis(a + 0.5 * h, h, count)
    x = axis.nodes()
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = 0.5 * (1.0 + np.cos(np.pi * np.clip((x - mid) / half, -1.0, 1.0)))
    return GridDensity(1, (axis,), vals)


def _cosine_bump_2d(center, radius: float, count: int) -> GridDensity:
    h = 2.0 * radius / count
    axes = tuple(GridAxis(c - radius + 0.5 * h, h, count) for c in center)
    gx, gy = np.meshgrid(axes[0].nodes(), axes[1].nodes(), indexing="ij")
    dist = np.sqrt((gx - center[0]) ** 2 + (gy - center[1]) ** 2)
    vals = np.where(dist <= radius, 0.5 * (1.0 + np.cos(np.pi * dist / radius)), 0.0)
    return GridDensity(2, axes, vals)


_PROFILES_1D = {"uniform": uniform_density_1d, "cosine-bump": _cosine_bump_1d}


def _scaled_to_mass(dens: GridDensity, mass: float) -> GridDensity:
    return GridDensity(dens.dim, dens.axes, dens.values * (mass / dens.integral()))


def _build_species(cfg: dict, idx: int) -> tuple[ParticleMeasure, GridDensity | None]:
    kind = cfg["type"]
    if kind == "grid-1d":
        dens = _PROFILES_1D[cfg["profile"]](*cfg["support"], cfg["resolution"])
        dens = _scaled_to_mass(dens, cfg["mass"])
        return particles_from_density(dens, cfg["particles"], "quantile-1d"), dens
    if kind == "grid-2d":
        dens = _cosine_bump_2d(cfg["center"], cfg["radius"], cfg["resolution"])
        dens = _scaled_to_mass(dens, cfg["mass"])
        return particles_from_density(dens, cfg["particles_per_axis"], "cell-midpoint"), dens
    if kind == "dirac":
        return dirac(cfg["point"], cfg["weight"]), None
    pos, w = np.asarray(cfg["positions"]), np.asarray(cfg["weights"])
    if len(pos) != len(w):
        raise ScenarioParseError(f"species[{idx}]: positions and weights differ in length")
    return ParticleMeasure(pos.shape[1], pos, w), None


def _kernel(cfg: dict, dim: int):
    return kernel_library(cfg["name"], dim, cfg["scale"], cfg["height"])


def _build_phi(cfg: dict, ball: float) -> VelocityField:
    """The predator's own V(t, x, r); x is the predator's position."""
    # VelocityField(dim, k, evaluate, sup_bound, lip_x, lip_r)
    if cfg["type"] == "pursuit":
        return VelocityField(1, 2, lambda t, xs, rs: rs[:, :1].copy(), ball, 0.0, 1.0)
    if cfg["type"] == "spring":
        target, rate = np.asarray(cfg["target"]), cfg["rate"]
        sup = rate * (float(np.linalg.norm(target)) + cfg["domain_radius"])
        return VelocityField(1, 2, lambda t, xs, rs: rate * (target - xs), sup, rate, 0.0)
    vec = np.asarray(cfg["vector"])
    drift = float(np.linalg.norm(vec))
    return VelocityField(1, 2, lambda t, xs, rs: np.broadcast_to(vec, xs.shape).copy(), drift, 0.0, 0.0)


def _build_model(cfg: dict, species: list[ParticleMeasure]):
    kind = cfg["type"]
    dim = species[0].dim
    mass = sum(float(m.weights.sum()) for m in species)
    if kind == "sedimentation":
        return sedimentation_field(_kernel(cfg["kernel"], 1), mass=mass)
    if kind == "pedestrian":
        speed = congestion_speed(cfg["speed"]["v_max"], cfg["speed"]["r_crit"])
        way = cfg["direction"]
        direction = (
            constant_direction(way["vector"]) if way["type"] == "constant" else toward_point(way["target"])
        )
        return pedestrian_field(speed, direction, _kernel(cfg["kernel"], dim))
    if kind == "linear-local":
        return linear_local_field(cfg["alpha"], cfg["domain_radius"], dim)
    if kind == "constant-drift":
        return constant_drift_field(np.asarray(cfg["vector"]))
    if len(species) != 2 or dim != 1 or len(species[1]) != 1:
        raise ScenarioParseError(
            "model.dirac-coupling: gallery form needs one 1D prey species "
            f"plus one predator species of one particle, got {[len(m) for m in species]} particles"
        )
    repulsion = odd_ramp_kernel(cfg["repulsion"]["scale"], cfg["repulsion"]["height"])
    attraction = odd_ramp_kernel(cfg["attraction"]["scale"], cfg["attraction"]["height"])
    self_cfg = cfg.get("prey_self_kernel")
    eta00 = _kernel(self_cfg, 1) if self_cfg else zero_kernel(1)
    kernels = KernelMatrix(((eta00, repulsion), (scale_kernel(attraction, -1.0), zero_kernel(1))))
    # sup bounds hold on the whole reachable ball |r|_1 <= M
    ball = mass * kernels.sup_bound
    prey = VelocityField(
        1, 2, lambda t, xs, rs: (rs[:, 0] + rs[:, 1])[:, None], sup_bound=ball, lip_x=0.0, lip_r=1.0
    )
    return VelocityModel((prey, _build_phi(cfg["phi"], ball)), kernels)


def scenario_from_config(raw: dict, audit: bool = True) -> Scenario:
    """Validate a parsed scenario file, build its scenario and audit its model."""
    cfg = validate(raw)
    built = [_build_species(sp, i) for i, sp in enumerate(cfg["species"])]
    initial = MeasureVector(tuple(mu for mu, _ in built))
    model = _build_model(cfg["model"], list(initial.species))
    try:
        scenario = Scenario(
            name=cfg["name"], model=model, initial=initial, horizon=cfg["horizon"],
            step=StepControl(cfg["dt"]), mode=cfg["mode"],
            picard=PicardParams(**cfg["picard"]), seed=cfg["seed"],
            initial_densities=tuple(dens for _, dens in built) if cfg["density_tracking"] else None,
        )
    except ValueError as exc:  # the table checked the rest: a model that cannot move the species
        raise ScenarioParseError(f"scenario: {exc}") from None
    if audit:
        radius = cfg.get("audit_radius")
        if radius is None:
            span = max(float(np.abs(m.positions).max()) for m in initial.species if len(m))
            radius = span + model.sup_bound * scenario.horizon + 1.0
        audit_model(model, radius, initial.total_measure())
    return scenario


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


def _bundled() -> Path:
    return Path(str(resources.files("nonlocalflow") / "scenarios"))


def bundled_scenarios() -> list[str]:
    return sorted(p.name.removesuffix(".json") for p in _bundled().iterdir() if p.name.endswith(".json"))


def load_raw(path_or_name: str) -> dict:
    """The parsed JSON of a scenario file, or of a bundled scenario by name."""
    path = Path(path_or_name)
    if not path.exists():
        if path_or_name not in bundled_scenarios():
            raise ScenarioNotFoundError(f"scenario file not found: {path_or_name}")
        path = _bundled() / f"{path_or_name}.json"
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def load_config(path_or_name: str, overrides: dict | None = None) -> dict:
    """The validated config of a scenario, with ``run`` overrides applied."""
    cfg = validate(load_raw(path_or_name))
    overrides = overrides or {}
    cfg.update({k: v for k, v in overrides.items() if k in SCENARIO.fields})  # dt, horizon, mode, seed
    if "n" in overrides:
        n = overrides["n"]
        if not any(sp["type"] in N_OVERRIDE for sp in cfg["species"]):
            raise ScenarioParseError("--n: acts only on a grid-1d or grid-2d species")
        for i, sp in enumerate(cfg["species"]):
            if sp["type"] in N_OVERRIDE:
                if n < 1:
                    raise ScenarioParseError(f"species[{i}]: --n must be at least 1, got {n}")
                name, count = N_OVERRIDE[sp["type"]]
                sp[name] = count(n)
    return validate(cfg)


def load_scenario(path_or_name: str, overrides: dict | None = None, audit: bool = True) -> Scenario:
    """Parse, build, and audit a scenario file (or bundled scenario name)."""
    return scenario_from_config(load_config(path_or_name, overrides), audit=audit)

