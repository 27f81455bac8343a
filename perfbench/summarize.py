"""Fold the result records in ``.perfbench/results`` into one trajectory point.

    python3 perfbench/summarize.py LABEL

writes ``perfbench/trajectory/LABEL.json``.  ``run.py`` names each record
``<workload>-seed<N>-trace<T>-<k>.json`` with ``k`` the first free index,
so running the same seeds again makes set ``k = 2``.  For each workload and
each set of untraced records, the point holds the median, quartiles and
quartile spread (as a share of the median) of each end-to-end metric, and
for every later set the relative difference of its medians from set 1's.
The traced records give the per-layer medians, the largest self times, and
the counts that differ between traced records of one seed (none expected).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench" / "results"


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def _untraced_set(records: list[dict]) -> dict:
    records = sorted(records, key=lambda r: r["seed"])
    return {
        "seeds": [r["seed"] for r in records],
        "samples": [len(r["samples"]) for r in records],
        "fail_frac": [r["fail_frac"] for r in records],
        "end_to_end": {
            metric: _summary([r["metrics"][metric] for r in records])
            for metric in records[0]["metrics"]
        },
    }


def _traced(records: list[dict]) -> dict:
    by_seed: dict[int, list[dict]] = {}
    for r in records:
        by_seed.setdefault(r["seed"], []).append(r)
    return {
        "seeds": [r["seed"] for r in records],
        "per_layer": {
            metric: statistics.median(r["metrics"][metric] for r in records)
            for metric in records[0]["metrics"]
        },
        "top_self_s": [r["top_self_s"] for r in records],
        "counts_differ": sorted(
            name
            for group in by_seed.values()
            for name in spans.COUNT_METRICS
            if len({r["metrics"][name] for r in group}) > 1
        ),
    }


def main(label: str) -> int:
    paths = sorted(RESULTS.glob("*.json"))
    if not paths:
        print(f"no records in {RESULTS}", file=sys.stderr)
        return 1
    records = []
    for path in paths:
        record = json.loads(path.read_text())
        record["set"] = int(path.stem.rsplit("-", 1)[1])
        records.append(record)
    point: dict = {"label": label, "environment": records[0]["environment"], "workloads": {}}
    for name in dict.fromkeys(r["workload"] for r in records):
        ours = [r for r in records if r["workload"] == name]
        plain: dict[int, list[dict]] = {}
        for r in ours:
            if not r["trace"]:
                plain.setdefault(r["set"], []).append(r)
        sets = {k: _untraced_set(plain[k]) for k in sorted(plain)}
        entry: dict = {"sets": sets}
        if len(sets) > 1:
            first = sets[min(sets)]["end_to_end"]
            entry["median_change_from_set_1"] = {
                k: {
                    metric: s["end_to_end"][metric]["median"] / first[metric]["median"] - 1.0
                    for metric in first
                }
                for k, s in sets.items() if k != min(sets)
            }
        traced = [r for r in ours if r["trace"]]
        if traced:
            entry["traced"] = _traced(traced)
        point["workloads"][name] = entry
    out = HERE / "trajectory" / f"{label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
