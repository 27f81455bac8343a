"""Result files: delimiter-separated tables and minimal hand-written SVG.

Every float is written as ``%.17g``, so identical configs and seeds produce
byte-identical files.  The per-particle tables (trajectory, particle cloud,
density profile) are long tables streamed one snapshot at a time.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .harness import BoundReport
from .solver import SolutionRecord
from .wasserstein import w1_series


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_long_table(
    path: Path, record: SolutionRecord, extra: list[str], columns=None, frame: bool = False
) -> None:
    """One line per particle per snapshot: ``[frame,] t, species, particle, x_1..x_d``
    and then the ``extra`` columns, every float as ``%.17g``.

    ``columns(j, i, mu)`` gives the extra columns of species ``i`` (the
    measure ``mu``) at snapshot ``j``, one array of ``len(mu)`` values each.
    """
    dim = record.states[0].dim
    head = ["frame"] * frame + ["t", "species", "particle"] + [f"x_{a + 1}" for a in range(dim)]
    line = ",".join(["%.17g"] * (1 + dim + len(extra))) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(head + extra) + "\n")
        for j, (t, state) in enumerate(zip(record.times, record.states)):
            lead = (f"{j}," if frame else "") + _fmt(t) + ","
            for i, mu in enumerate(state.species):
                cells = [np.arange(len(mu)), mu.positions, *(columns(j, i, mu) if columns else ())]
                template = f"{lead}{i},{line}"
                fh.writelines(template % tuple(row) for row in np.column_stack(cells).tolist())


def write_trajectory(record: SolutionRecord, path: Path) -> None:
    if record.densities is None:
        _write_long_table(path, record, ["weight"], lambda j, i, mu: (mu.weights,))
        return
    _write_long_table(
        path,
        record,
        ["weight", "logdensity"],
        lambda j, i, mu: (mu.weights, np.log(np.maximum(record.densities[j][i], 1e-300))),
    )


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
    path.write_text(_svg_document("".join(body)))


def _unit(values, all_values) -> np.ndarray:
    """``values`` mapped to [0, 1] by the range of ``all_values``; 0 where
    that range is one point.  Dividing by the largest magnitude first keeps
    the span finite, also for clouds that span nearly the whole double range."""
    lo, hi = float(all_values.min()), float(all_values.max())
    scale = max(abs(lo), abs(hi)) or 1.0
    span = hi / scale - lo / scale
    return (np.asarray(values, dtype=float) / scale - lo / scale) / (span if span > 0 else 1.0)


def _rescale(xs, ys, all_x, all_y, width=480, height=320, margin=40):
    return (
        margin + _unit(xs, all_x) * (width - 2 * margin),
        height - margin - _unit(ys, all_y) * (height - 2 * margin),
    )


def _svg_scatter(groups: list[np.ndarray], path: Path) -> None:
    # 1D clouds are drawn on the line y = 0
    groups = [g if g.shape[1] > 1 else np.column_stack([g[:, 0], np.zeros(len(g))]) for g in groups]
    pts = np.vstack([g for g in groups if len(g)])
    body = ["<g>\n"]
    for idx, g in enumerate(groups):
        px, py = _rescale(g[:, 0], g[:, 1], pts[:, 0], pts[:, 1])
        color = _PALETTE[idx % len(_PALETTE)]
        for x, y in zip(px, py):
            body.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="{color}"/>\n')
    body.append("</g>\n")
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
    csv_path, svg_path = plot_dir / f"{kind}.csv", plot_dir / f"{kind}.svg"
    if kind == "particle-cloud":
        _write_long_table(csv_path, record, [], frame=True)
        groups = [m.positions for m in record.states[0].species]
        groups += [m.positions for m in record.states[-1].species]
        _svg_scatter(groups, svg_path)
    elif kind == "w1-curve":
        ref_states = other.states if other is not None else [record.states[0]] * len(record.states)
        values = w1_series(zip(record.states, ref_states))
        rows = [[_fmt(t), _fmt(v)] for t, v in zip(record.times, values)]
        _write_csv(csv_path, ["t", "w1"], rows)
        _svg_curves([(record.times, np.asarray(values))], svg_path)
    elif kind == "picard-decay":
        distances = record.diagnostics.get("picard_distances", [])
        rows = [[str(w), str(it), _fmt(d)] for w, ds in enumerate(distances) for it, d in enumerate(ds, 1)]
        _write_csv(csv_path, ["window", "iteration", "distance"], rows)
        series = [(np.arange(1, len(ds) + 1), np.asarray(ds)) for ds in distances]
        if series:
            _svg_curves(series, svg_path)
        else:
            svg_path.write_text(_svg_document(""))
    elif kind == "density-profile":
        if record.densities is None:
            raise ValueError("record has no tracked densities")
        _write_long_table(csv_path, record, ["density"], lambda j, i, mu: (record.densities[j][i],))
        series = []
        for i, mu in enumerate(record.states[-1].species):
            if len(mu):
                order = np.argsort(mu.positions[:, 0], kind="stable")
                series.append((mu.positions[order, 0], record.densities[-1][i][order]))
        _svg_curves(series, svg_path)
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    return [csv_path, svg_path]
