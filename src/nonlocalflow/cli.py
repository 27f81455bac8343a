"""Scenario configuration, batch execution, and result persistence.

Scenario files are JSON with a versioned ``schema`` field; velocity models
are compositions of gallery primitives with numeric parameters.  Outputs
are delimiter-separated tables plus minimal hand-written SVG snapshots, so
identical configs and seeds produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .flow import StepControl, flow_map_lipschitz_probe
from .harness import (
    BoundReport,
    check_lemma_stability,
    check_linfty_growth,
    perturbed_initial,
    stability_battery,
)
from .kernels import (
    AuditError,
    Kernel,
    KernelMatrix,
    kernel_library,
    odd_ramp_kernel,
    scale_kernel,
    zero_kernel,
)
from .measures import (
    GridAxis,
    GridDensity,
    MeasureVector,
    ParticleMeasure,
    particles_from_density,
)
from .solver import (
    PicardParams,
    Scenario,
    SolutionRecord,
    solve,
)
from .velocity import (
    VelocityField,
    VelocityModel,
    audit_model,
    congestion_speed,
    constant_direction,
    constant_drift_field,
    dirac_coupling_field,
    linear_local_field,
    pedestrian_field,
    phi_field,
    sedimentation_field,
    toward_point,
)
from .wasserstein import w1_1d, w1_exact, w1_series

SCHEMA_VERSION = 1
KNOWN_EMITS = ("trajectories", "densities", "reports", "plotdata")


class ScenarioParseError(ValueError):
    """Configuration file rejected; message names the offending field."""


class ScenarioNotFoundError(ScenarioParseError):
    """No scenario file or bundled scenario of that name."""


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    out_dir: Path
    overrides: dict = field(default_factory=dict)
    emit: tuple[str, ...] = ("trajectories", "reports", "plotdata")

    def __post_init__(self):
        for key in self.overrides:
            if key not in ("n", "dt", "horizon", "mode", "seed", "k_override"):
                raise ScenarioParseError(f"unknown override {key!r}")
        for kind in self.emit:
            if kind not in KNOWN_EMITS:
                raise ScenarioParseError(f"unknown emit flag {kind!r}")


def _require(cfg: dict, key: str, context: str):
    if key not in cfg:
        raise ScenarioParseError(f"{context}: missing field {key!r}")
    return cfg[key]


def _build_kernel(cfg: dict, dim: int, context: str) -> Kernel:
    name = _require(cfg, "name", context)
    try:
        return kernel_library(
            name, dim, float(cfg.get("scale", 1.0)), float(cfg.get("height", 1.0))
        )
    except ValueError as exc:
        raise ScenarioParseError(f"{context}: {exc}") from exc


def _build_odd_ramp(cfg: dict, context: str) -> Kernel:
    scale = float(_require(cfg, "scale", context))
    height = float(_require(cfg, "height", context))
    try:
        return odd_ramp_kernel(scale, height)
    except ValueError as exc:
        raise ScenarioParseError(f"{context}: {exc}") from exc


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


def _scaled_to_mass(dens: GridDensity, mass: float) -> GridDensity:
    return GridDensity(dens.dim, dens.axes, dens.values * (mass / dens.integral()))


def _build_species(cfg: dict, idx: int) -> tuple[ParticleMeasure, GridDensity | None]:
    context = f"species[{idx}]"
    kind = _require(cfg, "type", context)
    if kind == "grid-1d":
        a, b = _require(cfg, "support", context)
        res = int(cfg.get("resolution", 64))
        profile = cfg.get("profile", "uniform")
        if profile == "uniform":
            h = (b - a) / res
            dens = GridDensity(1, (GridAxis(a + 0.5 * h, h, res),), np.ones(res))
        elif profile == "cosine-bump":
            dens = _cosine_bump_1d(a, b, res)
        else:
            raise ScenarioParseError(f"{context}: unknown profile {profile!r}")
        dens = _scaled_to_mass(dens, float(cfg.get("mass", 1.0)))
        mu = particles_from_density(
            dens, int(_require(cfg, "particles", context)), cfg.get("scheme", "quantile-1d")
        )
        return mu, dens
    if kind == "grid-2d":
        center = _require(cfg, "center", context)
        radius = float(_require(cfg, "radius", context))
        res = int(cfg.get("resolution", 24))
        profile = cfg.get("profile", "cosine-bump")
        if profile != "cosine-bump":
            raise ScenarioParseError(f"{context}: unknown profile {profile!r}")
        dens = _scaled_to_mass(
            _cosine_bump_2d(center, radius, res), float(cfg.get("mass", 1.0))
        )
        mu = particles_from_density(
            dens, int(cfg.get("particles_per_axis", 8)), "cell-midpoint"
        )
        return mu, dens
    if kind == "dirac":
        point = np.atleast_1d(np.asarray(_require(cfg, "point", context), dtype=float))
        mu = ParticleMeasure(point.size, point.reshape(1, -1), [float(cfg.get("weight", 1.0))])
        return mu, None
    if kind == "particles":
        pos = np.asarray(_require(cfg, "positions", context), dtype=float)
        w = np.asarray(_require(cfg, "weights", context), dtype=float)
        pos = pos.reshape(len(w), -1)
        return ParticleMeasure(pos.shape[1], pos, w), None
    raise ScenarioParseError(f"{context}: unknown species type {kind!r}")


def _build_phi(cfg: dict, ball: float) -> VelocityField:
    kind = _require(cfg, "type", "model.phi")
    if kind == "pursuit":
        return phi_field(
            lambda t, xs, rs, p: rs[:, :1].copy(),
            dim=1,
            k=2,
            sup_bound=ball,
            lip_x=0.0,
            lip_r=1.0,
        )
    if kind == "spring":
        target = np.asarray(_require(cfg, "target", "model.phi"), dtype=float)
        rate = float(_require(cfg, "rate", "model.phi"))
        radius = float(cfg.get("domain_radius", 5.0))
        return phi_field(
            lambda t, xs, rs, p: rate * (target - xs),
            dim=1,
            k=2,
            sup_bound=rate * (float(np.linalg.norm(target)) + radius),
            lip_x=rate,
            lip_r=0.0,
        )
    if kind == "drift":
        vec = np.asarray(_require(cfg, "vector", "model.phi"), dtype=float)
        return phi_field(
            lambda t, xs, rs, p: np.broadcast_to(vec, xs.shape).copy(),
            dim=1,
            k=2,
            sup_bound=float(np.linalg.norm(vec)),
            lip_x=0.0,
            lip_r=0.0,
        )
    raise ScenarioParseError(f"model.phi: unknown type {kind!r}")


def _build_model(cfg: dict, species: list[ParticleMeasure]) -> VelocityModel:
    kind = _require(cfg, "type", "model")
    dim = species[0].dim
    masses = [float(m.weights.sum()) for m in species]
    if kind == "sedimentation":
        kernel = _build_kernel(_require(cfg, "kernel", "model"), 1, "model.kernel")
        return sedimentation_field(kernel, mass=sum(masses))
    if kind == "pedestrian":
        kernel = _build_kernel(_require(cfg, "kernel", "model"), dim, "model.kernel")
        sp = cfg.get("speed", {})
        try:
            speed = congestion_speed(float(sp.get("v_max", 1.0)), float(sp.get("r_crit", 1.0)))
        except ValueError as exc:
            raise ScenarioParseError(f"model.speed: {exc}") from exc
        dcfg = _require(cfg, "direction", "model")
        dkind = _require(dcfg, "type", "model.direction")
        if dkind == "constant":
            direction = constant_direction(_require(dcfg, "vector", "model.direction"))
        elif dkind == "toward-point":
            direction = toward_point(_require(dcfg, "target", "model.direction"))
        else:
            raise ScenarioParseError(f"model.direction: unknown type {dkind!r}")
        return pedestrian_field(speed, direction, kernel)
    if kind == "linear-local":
        return linear_local_field(
            float(_require(cfg, "alpha", "model")),
            float(_require(cfg, "domain_radius", "model")),
            int(cfg.get("dim", dim)),
        )
    if kind == "constant-drift":
        return constant_drift_field(np.asarray(_require(cfg, "vector", "model"), dtype=float))
    if kind == "dirac-coupling":
        if len(species) != 2 or dim != 1:
            raise ScenarioParseError(
                "model.dirac-coupling: gallery form needs one 1D prey species "
                "plus one predator species"
            )
        repulsion = _build_odd_ramp(_require(cfg, "repulsion", "model"), "model.repulsion")
        attraction = scale_kernel(
            _build_odd_ramp(_require(cfg, "attraction", "model"), "model.attraction"), -1.0
        )
        self_cfg = cfg.get("prey_self_kernel")
        eta00 = (
            _build_kernel(self_cfg, 1, "model.prey_self_kernel")
            if self_cfg
            else zero_kernel(1)
        )
        kernels = KernelMatrix(
            ((eta00, repulsion), (attraction, zero_kernel(1)))
        )
        # sup bounds hold on the whole reachable ball |r|_1 <= M
        ball = sum(masses) * kernels.sup_bound
        prey = VelocityField(
            1,
            2,
            lambda t, xs, rs: (rs[:, 0] + rs[:, 1])[:, None],
            sup_bound=ball,
            lip_x=0.0,
            lip_r=1.0,
        )
        phi = _build_phi(_require(cfg, "phi", "model"), ball)
        return dirac_coupling_field([prey], [phi], kernels)
    raise ScenarioParseError(f"model: unknown type {kind!r}")


def _bundled_path(name: str) -> Path | None:
    base = resources.files("nonlocalflow") / "scenarios" / f"{name}.json"
    try:
        if base.is_file():
            return Path(str(base))
    except OSError:
        pass
    return None


def bundled_scenarios() -> list[str]:
    folder = resources.files("nonlocalflow") / "scenarios"
    return sorted(p.name.removesuffix(".json") for p in folder.iterdir() if p.name.endswith(".json"))


def _load_raw(path_or_name: str) -> dict:
    path = Path(path_or_name)
    if not path.exists():
        bundled = _bundled_path(path_or_name)
        if bundled is None:
            raise ScenarioNotFoundError(f"scenario file not found: {path_or_name}")
        path = bundled
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if raw.get("schema") != SCHEMA_VERSION:
        raise ScenarioParseError(f"{path}: unsupported schema {raw.get('schema')!r}")
    return raw


def _apply_overrides(raw: dict, overrides: dict) -> dict:
    raw = json.loads(json.dumps(raw))  # deep copy
    if "dt" in overrides:
        raw["dt"] = float(overrides["dt"])
    if "horizon" in overrides:
        raw["horizon"] = float(overrides["horizon"])
    if "mode" in overrides:
        mode = str(overrides["mode"])
        if mode not in ("direct", "picard"):
            raise ScenarioParseError(f"override mode must be direct|picard, got {mode!r}")
        raw["mode"] = mode
    if "seed" in overrides:
        raw["seed"] = int(overrides["seed"])
    if "n" in overrides:
        n = int(overrides["n"])
        for i, sp in enumerate(raw.get("species", [])):
            if sp.get("type") in ("grid-1d", "grid-2d") and n < 1:
                raise ScenarioParseError(f"species[{i}]: --n must be at least 1, got {n}")
            if sp.get("type") == "grid-1d":
                sp["particles"] = n
            elif sp.get("type") == "grid-2d":
                sp["particles_per_axis"] = max(1, round(math.sqrt(n)))
    return raw


def scenario_from_config(raw: dict, audit: bool = True) -> Scenario:
    for key in ("name", "horizon", "dt", "model", "species"):
        _require(raw, key, "scenario")
    built = []
    for i, cfg in enumerate(raw["species"]):
        try:
            built.append(_build_species(cfg, i))
        except ScenarioParseError:
            raise
        except ValueError as exc:
            raise ScenarioParseError(f"species[{i}]: {exc}") from exc
    initial = MeasureVector(tuple(mu for mu, _ in built))
    densities = tuple(dens for _, dens in built)
    model = _build_model(raw["model"], list(initial.species))
    track = bool(raw.get("density_tracking", False))
    try:
        scenario = Scenario(
            name=str(raw["name"]),
            model=model,
            initial=initial,
            horizon=float(raw["horizon"]),
            step=StepControl(float(raw["dt"]), float(raw.get("courant", 0.1))),
            mode=str(raw.get("mode", "direct")),
            track_density=track,
            picard=PicardParams(**raw.get("picard", {})),
            initial_densities=densities if track else None,
            h_fd=float(raw.get("h_fd", 1e-4)),
            seed=int(raw.get("seed", 0)),
            config=json.loads(json.dumps(raw)),
        )
    except ValueError as exc:
        # each field check names its field: dt, courant, horizon, h_fd, picard.*
        raise ScenarioParseError(f"scenario: {exc}") from exc
    if audit:
        radius = raw.get("audit_radius")
        if radius is None:
            span = max(
                float(np.abs(m.positions).max()) for m in initial.species if len(m)
            )
            radius = span + model.sup_bound * scenario.horizon + 1.0
        audit_model(model, float(radius), initial.total_measure())
    return scenario


def load_scenario(path_or_name: str, overrides: dict | None = None, audit: bool = True) -> Scenario:
    """Parse, build, and audit a scenario file (or bundled scenario name)."""
    raw = _apply_overrides(_load_raw(path_or_name), overrides or {})
    return scenario_from_config(raw, audit=audit)


def save_scenario(scenario: Scenario, path: str | Path) -> Path:
    """Write the scenario's config back to disk; load(save(s)) is identical."""
    if scenario.config is None:
        raise ValueError("scenario carries no config (not file-loaded)")
    path = Path(path)
    path.write_text(json.dumps(scenario.config, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_trajectory(record: SolutionRecord, path: Path) -> None:
    dim = record.states[0].dim
    header = ["t", "species", "particle"] + [f"x_{a + 1}" for a in range(dim)] + ["weight"]
    tracked = record.densities is not None
    if tracked:
        header.append("logdensity")
    rows = []
    for j, (t, state) in enumerate(zip(record.times, record.states)):
        for i, mu in enumerate(state.species):
            for m in range(len(mu)):
                row = [_fmt(t), str(i), str(m)]
                row += [_fmt(c) for c in mu.positions[m]]
                row.append(_fmt(mu.weights[m]))
                if tracked:
                    dens = record.densities[j][i][m]
                    row.append(_fmt(np.log(max(dens, 1e-300))))
                rows.append(row)
    _write_csv(path, header, rows)


def write_reports(reports: list[BoundReport], path: Path) -> None:
    rows = [
        [
            r.name,
            _fmt(r.lhs),
            _fmt(r.rhs),
            _fmt(r.slack),
            "true" if r.passed else "false",
            json.dumps(r.fingerprint, sort_keys=True, default=str),
        ]
        for r in reports
    ]
    _write_csv(path, ["check", "lhs", "rhs", "slack", "pass", "fingerprint"], rows)


def _svg_document(body: str, width: int = 480, height: int = 320) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f"{body}</svg>\n"
    )


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _svg_curves(series: list[tuple[np.ndarray, np.ndarray]], path: Path) -> None:
    all_x = np.concatenate([s[0] for s in series])
    all_y = np.concatenate([s[1] for s in series])
    body = ['<g fill="none" stroke-width="1.5">\n']
    for idx, (xs, ys) in enumerate(series):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(*_rescale(xs, ys, all_x, all_y)))
        body.append(
            f'<polyline stroke="{_PALETTE[idx % len(_PALETTE)]}" points="{pts}"/>\n'
        )
    body.append("</g>\n")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_svg_document("".join(body)))


def _rescale(xs, ys, all_x, all_y, width=480, height=320, margin=40):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x0, x1 = float(all_x.min()), float(all_x.max())
    y0, y1 = float(all_y.min()), float(all_y.max())
    sx = (width - 2 * margin) / (x1 - x0 if x1 > x0 else 1.0)
    sy = (height - 2 * margin) / (y1 - y0 if y1 > y0 else 1.0)
    return margin + (xs - x0) * sx, height - margin - (ys - y0) * sy


def _svg_scatter(groups: list[np.ndarray], path: Path) -> None:
    pts = np.vstack([g for g in groups if len(g)])
    if pts.shape[1] == 1:
        pts = np.column_stack([pts[:, 0], np.zeros(len(pts))])
    body = ["<g>\n"]
    for idx, g in enumerate(groups):
        g2 = g if g.shape[1] > 1 else np.column_stack([g[:, 0], np.zeros(len(g))])
        px, py = _rescale(
            g2[:, 0], g2[:, 1], pts[:, 0], pts[:, 1]
        )
        color = _PALETTE[idx % len(_PALETTE)]
        for x, y in zip(px, py):
            body.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="{color}"/>\n')
    body.append("</g>\n")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_svg_document("".join(body)))


def emit_plotdata(
    record: SolutionRecord,
    kind: str,
    out_dir: Path,
    other: SolutionRecord | None = None,
) -> list[Path]:
    """Write the delimiter-separated table and SVG snapshot for one kind."""
    plot_dir = Path(out_dir) / "plot"
    plot_dir.mkdir(parents=True, exist_ok=True)
    if kind == "particle-cloud":
        dim = record.states[0].dim
        rows = []
        for frame, (t, state) in enumerate(zip(record.times, record.states)):
            for i, mu in enumerate(state.species):
                for m in range(len(mu)):
                    rows.append(
                        [str(frame), _fmt(t), str(i), str(m)]
                        + [_fmt(c) for c in mu.positions[m]]
                    )
        csv_path = plot_dir / "particle-cloud.csv"
        _write_csv(
            csv_path,
            ["frame", "t", "species", "particle"] + [f"x_{a + 1}" for a in range(dim)],
            rows,
        )
        svg_path = plot_dir / "particle-cloud.svg"
        groups = [m.positions for m in record.states[0].species]
        groups += [m.positions for m in record.states[-1].species]
        _svg_scatter(groups, svg_path)
        return [csv_path, svg_path]
    if kind == "w1-curve":
        ref_states = other.states if other is not None else [record.states[0]] * len(record.states)
        values = w1_series(zip(record.states, ref_states))
        csv_path = plot_dir / "w1-curve.csv"
        _write_csv(
            csv_path,
            ["t", "w1"],
            [[_fmt(t), _fmt(v)] for t, v in zip(record.times, values)],
        )
        svg_path = plot_dir / "w1-curve.svg"
        _svg_curves([(record.times, np.asarray(values))], svg_path)
        return [csv_path, svg_path]
    if kind == "picard-decay":
        distances = record.diagnostics.get("picard_distances", [])
        rows = []
        series = []
        for w, dists in enumerate(distances):
            series.append((np.arange(1, len(dists) + 1), np.asarray(dists)))
            for it, d in enumerate(dists):
                rows.append([str(w), str(it + 1), _fmt(d)])
        csv_path = plot_dir / "picard-decay.csv"
        _write_csv(csv_path, ["window", "iteration", "distance"], rows)
        svg_path = plot_dir / "picard-decay.svg"
        if series:
            _svg_curves(series, svg_path)
        else:
            svg_path.write_text(_svg_document(""))
        return [csv_path, svg_path]
    if kind == "density-profile":
        if record.densities is None:
            raise ValueError("record has no tracked densities")
        dim = record.states[0].dim
        rows = []
        for t, state, dens in zip(record.times, record.states, record.densities):
            for i, mu in enumerate(state.species):
                for m in range(len(mu)):
                    rows.append(
                        [_fmt(t), str(i), str(m)]
                        + [_fmt(c) for c in mu.positions[m]]
                        + [_fmt(dens[i][m])]
                    )
        csv_path = plot_dir / "density-profile.csv"
        _write_csv(
            csv_path,
            ["t", "species", "particle"] + [f"x_{a + 1}" for a in range(dim)] + ["density"],
            rows,
        )
        svg_path = plot_dir / "density-profile.svg"
        series = []
        final = record.states[-1]
        for i, mu in enumerate(final.species):
            if not len(mu):
                continue
            order = np.argsort(mu.positions[:, 0], kind="stable")
            series.append(
                (mu.positions[order, 0], record.densities[-1][i][order])
            )
        _svg_curves(series, svg_path)
        return [csv_path, svg_path]
    raise ValueError(f"unknown plot kind {kind!r}")


# ---------------------------------------------------------------------------
# checks requested by scenario files
# ---------------------------------------------------------------------------


def run_checks(scenario: Scenario, record: SolutionRecord, checks: list[dict], k_override: float | None = None) -> list[BoundReport]:
    reports: list[BoundReport] = []
    # a direct solve is the base solve the stability pairs share, and the
    # tracked solve the L-infinity check reads
    direct = record if record.diagnostics["mode"] == "direct" else None
    for cfg in checks:
        kind = cfg.get("type")
        fp = {"scenario": scenario.name, "seed": scenario.seed, "dt": scenario.step.dt,
              "T": scenario.horizon, "N": sum(len(m) for m in scenario.initial.species)}
        if kind == "mass-conservation":
            masses = record.masses()
            drift = float(np.abs(masses - masses[0]).max())
            reports.append(BoundReport.make("mass-conservation", drift, 0.0, 1.0, fp))
        elif kind == "stability-initial":
            pairs = int(cfg.get("pairs", 3))
            eps = float(cfg.get("eps", 0.05))
            slack = float(cfg.get("slack", 1.05))
            reports.extend(
                stability_battery(scenario, pairs, eps, scenario.seed, slack, k_override, direct)
            )
        elif kind == "linfty-growth":
            reports.append(
                check_linfty_growth(scenario, float(cfg.get("slack", 1.05)), record=direct)
            )
        elif kind == "lemma-stability":
            sigma0 = perturbed_initial(scenario.initial, float(cfg.get("eps", 0.05)), scenario.seed)
            reports.append(
                check_lemma_stability(scenario.model, scenario.initial, sigma0, fingerprint=fp)
            )
        elif kind == "flow-lipschitz":
            tol = float(cfg.get("tolerance", 0.01))
            ratio = flow_map_lipschitz_probe(
                scenario.model, scenario.initial, scenario.horizon, scenario.step.dt,
                seed=scenario.seed, courant=scenario.step.courant,
            )
            bound = math.exp(scenario.constants().C * scenario.horizon)
            reports.append(
                BoundReport.make("flow-map-lipschitz", ratio, bound, 1.0 + tol, fp)
            )
        else:
            raise ScenarioParseError(f"unknown check type {kind!r}")
    return reports


def run(config: RunConfig) -> int:
    """Execute one scenario end to end; exit 0 iff all requested checks pass."""
    raw = _apply_overrides(_load_raw(config.scenario), config.overrides)
    scenario = scenario_from_config(raw)
    record = solve(scenario)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if "trajectories" in config.emit:
        write_trajectory(record, out / "trajectory.csv")
    if "densities" in config.emit and record.densities is not None:
        emit_plotdata(record, "density-profile", out)
    reports: list[BoundReport] = []
    if "reports" in config.emit:
        k_override = config.overrides.get("k_override")
        reports = run_checks(scenario, record, raw.get("checks", []), k_override)
        write_reports(reports, out / "reports.csv")
    if "plotdata" in config.emit:
        emit_plotdata(record, "particle-cloud", out)
        emit_plotdata(record, "w1-curve", out)
        if scenario.mode == "picard":
            emit_plotdata(record, "picard-decay", out)
        if record.densities is not None:
            emit_plotdata(record, "density-profile", out)
    failed = [r for r in reports if not r.passed]
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: lhs={r.lhs:.6g} rhs={r.rhs:.6g} slack={r.slack}")
    return 1 if failed else 0


def _read_measure_csv(path: str) -> ParticleMeasure:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = [c.strip() for c in header]
        if "weight" not in cols:
            raise ScenarioParseError(f"{path}: need columns x_1..x_d,weight")
        wi = cols.index("weight")
        dims = [i for i, c in enumerate(cols) if c.startswith("x_")]
        pos = []
        w = []
        for row in reader:
            pos.append([float(row[i]) for i in dims])
            w.append(float(row[wi]))
    return ParticleMeasure(len(dims), np.asarray(pos), np.asarray(w))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nonlocalflow",
        description="Particle solver for convolution-coupled continuity equations",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="solve one scenario and write outputs")
    p_run.add_argument("scenario", help="scenario file or bundled name")
    p_run.add_argument("--n", type=int)
    p_run.add_argument("--dt", type=float)
    p_run.add_argument("--horizon", type=float)
    p_run.add_argument("--mode", choices=["direct", "picard"])
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--k-override", type=float, dest="k_override")
    p_run.add_argument("--out", default="out")
    p_run.add_argument(
        "--emit",
        default="trajectories,reports,plotdata",
        help="comma list from: " + ",".join(KNOWN_EMITS),
    )

    p_suite = sub.add_parser("suite", help="run the acceptance battery")
    p_suite.add_argument("--out", default=None)

    p_w1 = sub.add_parser("w1", help="exact W1 between two measure CSV files")
    p_w1.add_argument("measure_a")
    p_w1.add_argument("measure_b")

    p_audit = sub.add_parser("audit", help="metadata audit of one scenario")
    p_audit.add_argument("scenario")

    p_list = sub.add_parser("scenarios", help="list bundled scenarios")

    args = parser.parse_args(argv)
    if args.verb == "run":
        overrides = {
            key: getattr(args, key)
            for key in ("n", "dt", "horizon", "mode", "seed", "k_override")
            if getattr(args, key) is not None
        }
        emit = tuple(s for s in args.emit.split(",") if s)
        try:
            return run(RunConfig(args.scenario, Path(args.out), overrides, emit))
        except (ScenarioParseError, AuditError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (RuntimeError, ValueError) as exc:
            print(f"solver error: {exc}", file=sys.stderr)
            return 3
    if args.verb == "suite":
        from .suite import run_suite

        results = run_suite(Path(args.out) if args.out else None)
        return 0 if all(r.passed for r in results) else 1
    if args.verb == "w1":
        try:
            mu = _read_measure_csv(args.measure_a)
            nu = _read_measure_csv(args.measure_b)
            value = w1_1d(mu, nu) if mu.dim == 1 else w1_exact(mu, nu)[0]
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(_fmt(value))
        return 0
    if args.verb == "audit":
        try:
            scenario = load_scenario(args.scenario)
        except (ScenarioNotFoundError, AuditError) as exc:
            print(f"audit failed: {exc}", file=sys.stderr)
            return 1
        except ScenarioParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        consts = scenario.constants()
        print(
            f"audit passed: {scenario.name} (k={scenario.initial.k}, "
            f"d={scenario.initial.dim}, C={consts.C:.6g}, K={consts.K:.6g})"
        )
        return 0
    if args.verb == "scenarios":
        for name in bundled_scenarios():
            print(name)
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
