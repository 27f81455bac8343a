"""Correctness gate for one ``nonlocalflow run`` output directory.

A run passes when it exited 0 and:

* ``reports.csv`` (for workloads that run checks) lists the reference's
  checks, in order, and every row has ``pass=true``;
* ``trajectory.csv`` has the reference's snapshot and particle counts;
* every species' weights equal its initial weights exactly at every
  snapshot, and the initial weights match the reference to 1e-12
  relative;
* every final position is within ``POSITION_TOL`` of the reference
  recorded at the seed commit.

``POSITION_TOL`` is absolute, in the scenarios' length unit (their clouds
span about 2).  Summing the radial kernel over the centres in reverse
order moves final positions by 2e-16, and one more Picard iteration moves
them by 6e-13.  RK4 with its third stage built from the first slope moves
them by 4e-8 on ``sed1d-checked`` and 1e-6 on ``ped2d-crowd``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

POSITION_TOL = 1e-9
WEIGHT_RTOL = 1e-12


def read_trajectory(path: Path) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Snapshots in file order; each is a list of (positions, weights) per species."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        dims = [i for i, col in enumerate(header) if col.startswith("x_")]
        wi = header.index("weight")
        snapshots: list[dict[int, list[list[float]]]] = []
        last_t = None
        for row in reader:
            if row[0] != last_t:
                snapshots.append({})
                last_t = row[0]
            species = snapshots[-1].setdefault(int(row[1]), [])
            species.append([float(row[i]) for i in dims] + [float(row[wi])])
    out = []
    for snap in snapshots:
        arrays = [np.asarray(snap[i], dtype=float) for i in sorted(snap)]
        out.append([(a[:, :-1], a[:, -1]) for a in arrays])
    return out


def read_reports(path: Path) -> list[tuple[str, bool]]:
    with open(path, newline="") as fh:
        return [(row["check"], row["pass"] == "true") for row in csv.DictReader(fh)]


def reference_of(out_dir: Path, checked: bool) -> dict:
    """The reference a later run is compared with, taken from one good run."""
    snapshots = read_trajectory(out_dir / "trajectory.csv")
    return {
        "snapshots": len(snapshots),
        "species": [
            {"weights": w.tolist(), "final": pos.tolist()}
            for (_, w), (pos, _) in zip(snapshots[0], snapshots[-1])
        ],
        "reports": [name for name, _ in read_reports(out_dir / "reports.csv")]
        if checked else None,
    }


def check_run(out_dir: Path, status: int, reference: dict) -> list[str]:
    """Reasons the run is wrong; an empty list means it passed."""
    if status != 0:
        return [f"exit status {status}"]
    problems: list[str] = []
    if reference["reports"] is not None:
        path = out_dir / "reports.csv"
        if not path.is_file():
            return ["no reports.csv"]
        reports = read_reports(path)
        names = [name for name, _ in reports]
        if names != reference["reports"]:
            problems.append(f"checks {names} differ from {reference['reports']}")
        problems += [f"check {name} failed" for name, ok in reports if not ok]
    path = out_dir / "trajectory.csv"
    if not path.is_file():
        return problems + ["no trajectory.csv"]
    snapshots = read_trajectory(path)
    if len(snapshots) != reference["snapshots"]:
        return problems + [
            f"{len(snapshots)} snapshots, reference has {reference['snapshots']}"
        ]
    ref_species = reference["species"]
    if any(len(snap) != len(ref_species) for snap in snapshots):
        return problems + ["species count differs from the reference"]
    for i, ref in enumerate(ref_species):
        ref_w = np.asarray(ref["weights"])
        ref_x = np.asarray(ref["final"]).reshape(len(ref_w), -1)
        w0 = snapshots[0][i][1]
        if any(len(snap[i][1]) != len(ref_w) for snap in snapshots):
            problems.append(f"species {i}: particle count differs from the reference")
            continue
        if not np.allclose(w0, ref_w, rtol=WEIGHT_RTOL, atol=0.0):
            problems.append(f"species {i}: initial weights differ from the reference")
        changed = [j for j, snap in enumerate(snapshots) if not np.array_equal(snap[i][1], w0)]
        if changed:
            problems.append(f"species {i}: weights change at snapshot {changed[0]}")
        final = snapshots[-1][i][0]
        if final.shape != ref_x.shape:
            problems.append(f"species {i}: final positions have shape {final.shape}")
            continue
        gap = np.abs(final - ref_x).max(axis=1)
        worst = int(np.argmax(gap))
        if gap[worst] > POSITION_TOL:
            problems.append(
                f"species {i}: particle {worst} ends {gap[worst]:.3g} from the reference"
            )
    return problems


def load_reference(path: Path) -> dict:
    return json.loads(path.read_text())
