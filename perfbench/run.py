"""Layered benchmark of ``nonlocalflow run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  Each sample is one fresh ``nonlocalflow run`` process
(``child.py``), started only after the previous one exited (a closed loop
with one client), with the program's defaults: ``NONLOCAL_THREADS`` and
``NONLOCAL_NUMBA`` are removed from its environment.  Samples repeat until
the next one would end after S seconds, with at least ``MIN_SAMPLES``.
Every sample passes through the correctness gate of ``gate.py``; a failed
sample is counted, never retried.

With ``--trace 0`` the result holds the end-to-end metrics, medians over
the samples.  With ``--trace 1`` traced and untraced samples alternate and
the result holds the per-layer metrics of ``spans.py``: medians over the
traced samples, whose counts must repeat exactly, plus the tracing
overhead.  The last line of standard output is the result as JSON; the
environment and every sample go to a new file in ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import gate
import spans
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "nonlocalflow"
REFERENCE = HERE / "reference"
WORK = ROOT / ".perfbench"
MIN_SAMPLES = 3
MIN_TRACED = 2
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(PACKAGE)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(backend: str | None) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "backend": backend,
        "NONLOCAL_THREADS": None,
        "NONLOCAL_NUMBA": None,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("NONLOCAL_THREADS", "NONLOCAL_NUMBA")}
    env.pop("PYTHONPATH", None)
    return env


def run_sample(workload: Workload, seed: int, traced: bool, deadline: float) -> dict:
    """One ``nonlocalflow run`` process; times, peak RSS and its sidecar."""
    out = WORK / "out" / workload.name
    shutil.rmtree(out, ignore_errors=True)
    sidecar = WORK / "sidecar.json"
    sidecar.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(sidecar), "1" if traced else "0",
           *workload.argv(seed, str(out))]
    with open(WORK / "child.log", "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(1.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    record = json.loads(sidecar.read_text()) if sidecar.is_file() else {}
    sample = {
        "traced": traced,
        "status": proc.returncode,
        "wall_s": end - start,
        "setup_s": record["solve_start"] - start if "solve_start" in record else None,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "backend": record.get("backend"),
        "out": out,
    }
    if traced and "spans" in record:
        sample["spans"] = [spans.Span(*row) for row in record["spans"]]
    if proc.returncode != 0:
        sample["log_tail"] = (WORK / "child.log").read_text()[-2000:]
    return sample


def _gate(sample: dict, workload: Workload, reference: dict) -> None:
    sample["problems"] = gate.check_run(sample.pop("out"), sample["status"], reference)
    if sample["problems"]:
        print(f"{workload.name}: FAILED {sample['problems']}", file=sys.stderr)
        if "log_tail" in sample:
            print(sample["log_tail"], file=sys.stderr)


def collect(workload: Workload, seed: int, seconds: float, traced: bool, reference: dict) -> list[dict]:
    """Closed loop of samples; traced runs alternate traced and untraced."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    samples: list[dict] = []
    while True:
        want_trace = traced and len(samples) % 2 == 0
        sample = run_sample(workload, seed, want_trace, deadline)
        _gate(sample, workload, reference)
        samples.append(sample)
        print(
            f"{workload.name} seed {seed} sample {len(samples)}{' traced' if want_trace else ''}: "
            f"wall {sample['wall_s']:.3f} s, peak {sample['peak_rss_mb']:.1f} MB, "
            f"{'ok' if not sample['problems'] else 'FAILED'}",
            flush=True,
        )
        elapsed = time.monotonic() - start
        if traced:
            enough = sum(s["traced"] for s in samples) >= MIN_TRACED and len(samples) > MIN_TRACED
            next_like = [s["wall_s"] for s in samples if s["traced"] != want_trace] or [sample["wall_s"]]
        else:
            enough = len(samples) >= MIN_SAMPLES
            next_like = [s["wall_s"] for s in samples]
        if (enough and elapsed + statistics.median(next_like) > seconds) or elapsed > HARD_LIMIT_S / 2:
            return samples


def end_to_end(samples: list[dict]) -> dict[str, float]:
    setups = [s["setup_s"] for s in samples if s["setup_s"] is not None]
    return {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "setup_s": statistics.median(setups) if setups else statistics.median(s["wall_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "pass_frac": sum(not s["problems"] for s in samples) / len(samples),
    }


def per_layer(samples: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Medians over traced samples, the tracing overhead, and count mismatches."""
    traced = [s for s in samples if s["traced"] and "spans" in s]
    plain = [s["wall_s"] for s in samples if not s["traced"]]
    runs = [spans.layer_metrics(s["spans"]) for s in traced]
    mismatched = [
        name for name in spans.COUNT_METRICS if len({r[name] for r in runs}) > 1
    ]
    # a sample that died before writing spans leaves its layers at 0; the
    # gate has already failed it
    metrics = {
        name: statistics.median(r[name] for r in runs) if runs else 0.0
        for name in spans.LAYER_METRICS if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = (
        statistics.median(s["wall_s"] for s in traced) - statistics.median(plain)
        if traced and plain else 0.0
    )
    return metrics, mismatched


def _save(record: dict) -> None:
    """Write the record to the first free ``<workload>-seed<N>-trace<T>-<k>.json``."""
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    for k in itertools.count(1):
        try:
            with open(results / f"{stem}-{k}.json", "x") as fh:
                fh.write(json.dumps(record, indent=1) + "\n")
            return
        except FileExistsError:
            continue


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no nonlocalflow source at {PACKAGE}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import nonlocalflow.cli"],
        cwd=ROOT, env=_child_env(), check=True,
    )
    workload = WORKLOADS[args.workload]
    ref_path = REFERENCE / f"{workload.name}.json"
    if not ref_path.is_file():
        print(f"error: no reference output {ref_path}", file=sys.stderr)
        return 2
    reference = gate.load_reference(ref_path)

    samples = collect(workload, args.seed, args.seconds, bool(args.trace), reference)
    failed = sum(bool(s["problems"]) for s in samples)
    problems: list[str] = []
    if args.trace:
        values, mismatched = per_layer(samples)
        units = {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}
        problems = [f"count {name} differs between traced samples" for name in mismatched]
    else:
        values = end_to_end(samples)
        units = END_TO_END_UNITS
    env = environment(samples[0]["backend"])
    record = {
        "workload": workload.name,
        "argv": workload.argv(args.seed, "OUT"),
        "seed": args.seed,
        "seed_used": workload.checked,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "samples": [
            {k: v for k, v in s.items() if k not in ("spans", "log_tail")} for s in samples
        ],
        "fail_frac": failed / len(samples),
        "problems": problems,
        "metrics": values,
        "top_self_s": sorted(
            ([name, v] for name, v in values.items() if name.endswith("_self_s")),
            key=lambda item: -item[1],
        )[:5] if args.trace else None,
    }
    _save(record)
    print("environment: " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
