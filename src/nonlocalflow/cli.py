"""The ``nonlocalflow`` command line: argument parsing, the verbs, ``run``
and the checks a scenario file requests.

Scenario files are read by :mod:`nonlocalflow.scenario`, the checks are
measured by :mod:`nonlocalflow.harness` and result files are written by
:mod:`nonlocalflow.output`.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .harness import (
    BoundReport,
    check_flow_lipschitz,
    check_lemma_perturbed,
    check_linfty_growth,
    check_mass_conservation,
    stability_battery,
)
from .kernels import AuditError
from .measures import ParticleMeasure
from .output import emit_plotdata, write_reports, write_trajectory
from .scenario import (
    OVERRIDES,
    ScenarioNotFoundError,
    ScenarioParseError,
    bundled_scenarios,
    load_config,
    load_scenario,
    scenario_from_config,
    validate_checks,
)
from .solver import Scenario, SolutionRecord, solve
from .wasserstein import PairCapError, w1_1d, w1_exact

KNOWN_EMITS = ("trajectories", "densities", "reports", "plotdata")


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    out_dir: Path
    overrides: dict = field(default_factory=dict)
    emit: tuple[str, ...] = ("trajectories", "reports", "plotdata")

    def __post_init__(self):
        for key in self.overrides:
            if key not in OVERRIDES:
                raise ScenarioParseError(f"unknown override {key!r}")
        if not self.emit:
            raise ScenarioParseError("--emit: needs at least one of " + ",".join(KNOWN_EMITS))
        for kind in self.emit:
            if kind not in KNOWN_EMITS:
                raise ScenarioParseError(f"unknown emit flag {kind!r}")


# check type of a scenario file -> the harness check of one run
_CHECKS = {
    "mass-conservation": check_mass_conservation,
    "linfty-growth": check_linfty_growth,
    "lemma-stability": check_lemma_perturbed,
    "flow-lipschitz": check_flow_lipschitz,
}


def _check_reports(scenario: Scenario, record: SolutionRecord, cfg: dict) -> list[BoundReport]:
    """The reports of one check of a scenario file."""
    if cfg["type"] == "stability-initial":
        # a direct solve is the base solve the stability pairs share
        direct = record if scenario.mode == "direct" else None
        return stability_battery(scenario, cfg["pairs"], direct)
    return [_CHECKS[cfg["type"]](scenario, record)]


def run_checks(scenario: Scenario, record: SolutionRecord, checks: list[dict]) -> list[BoundReport]:
    """Every check's reports; a check whose exact W1 exceeds the pair cap
    is one failing report that carries the cap message."""
    return [rep for cfg in validate_checks(checks) for rep in _check_reports(scenario, record, cfg)]


def run(config: RunConfig) -> int:
    """Execute one scenario end to end; exit 0 iff all requested checks pass."""
    cfg = load_config(config.scenario, config.overrides)
    if "densities" in config.emit and not cfg["density_tracking"]:
        raise ScenarioParseError("density_tracking: --emit densities needs density_tracking true")
    scenario = scenario_from_config(cfg)
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioParseError(f"--out: {exc}") from None
    record = solve(scenario)
    if "trajectories" in config.emit:
        write_trajectory(record, out / "trajectory.csv")
    if record.densities is not None and {"densities", "plotdata"} & set(config.emit):
        emit_plotdata(record, "density-profile", out)
    reports: list[BoundReport] = []
    if "reports" in config.emit:
        reports = run_checks(scenario, record, cfg["checks"])
        write_reports(reports, out / "reports.csv")
    if "plotdata" in config.emit:
        emit_plotdata(record, "particle-cloud", out)
        try:
            emit_plotdata(record, "w1-curve", out)
        except PairCapError as exc:
            print(f"skipped plot w1-curve: {exc}", file=sys.stderr)
        if scenario.mode == "picard":
            emit_plotdata(record, "picard-decay", out)
    failed = [r for r in reports if not r.passed]
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: lhs={r.lhs:.6g} rhs={r.rhs:.6g} slack={r.slack}")
    return 1 if failed else 0


def _read_measure_csv(path: str) -> ParticleMeasure:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        cols = [c.strip() for c in next(reader, [])]
        dims = [i for i, c in enumerate(cols) if c.startswith("x_")]
        if "weight" not in cols or not dims:
            raise ScenarioParseError(f"{path}, line 1: need columns x_1..x_d,weight")
        wi = cols.index("weight")
        pos = []
        w = []
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(cols):
                raise ScenarioParseError(f"{where}: {len(row)} fields, header has {len(cols)}")
            try:
                pos.append([float(row[i]) for i in dims])
                w.append(float(row[wi]))
            except ValueError as exc:
                raise ScenarioParseError(f"{where}: {exc}") from None
            if not (np.isfinite(pos[-1]).all() and math.isfinite(w[-1]) and w[-1] > 0):
                raise ScenarioParseError(f"{where}: positions must be finite and the weight finite and positive")
    return ParticleMeasure(len(dims), np.asarray(pos), np.asarray(w))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nonlocalflow",
        description="Particle solver for convolution-coupled continuity equations",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="solve one scenario and write outputs")
    p_run.add_argument("scenario", help="scenario file or bundled name")
    for name, kind in OVERRIDES.items():
        p_run.add_argument("--" + name.replace("_", "-"), type=kind, dest=name)
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

    sub.add_parser("scenarios", help="list bundled scenarios")

    args = parser.parse_args(argv)
    if args.verb == "run":
        overrides = {key: getattr(args, key) for key in OVERRIDES if getattr(args, key) is not None}
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
            if mu.dim != nu.dim:
                raise ScenarioParseError(
                    f"{args.measure_a}, line 1: dimension {mu.dim} differs from dimension {nu.dim} of {args.measure_b}"
                )
            value = w1_1d(mu, nu) if mu.dim == 1 else w1_exact(mu, nu)[0]
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"{float(value):.17g}")
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
        c = scenario.lipschitz_b()
        print(
            f"audit passed: {scenario.name} (k={scenario.initial.k}, "
            f"d={scenario.initial.dim}, C={c:.6g}, K={2.0 * c:.6g})"
        )
        return 0
    if args.verb == "scenarios":
        for name in bundled_scenarios():
            print(name)
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
