"""One benchmark sample: ``nonlocalflow run`` in a fresh interpreter.

    python3 perfbench/child.py SIDECAR TRACE run SCENARIO [options...]

Runs ``nonlocalflow.cli.main`` on the arguments after TRACE, importing the
package from the ``src`` directory next to this one.  It records the
``time.monotonic()`` instant at which ``cli.run`` hands the scenario to the
solver, which ends set-up; the parent compares it with the instant it
started this process.  With TRACE = 1 it also installs the spans of
``spans.py`` and keeps them in memory.  At exit it writes SIDECAR as JSON
and exits with the run's status.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str]) -> int:
    sidecar, traced, run_argv = Path(argv[0]), argv[1] == "1", argv[2:]
    sys.path.insert(0, str(SRC))
    import nonlocalflow.cli as cli
    from nonlocalflow import _accel

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported nonlocalflow from {cli.__file__}, not {SRC}")
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    marks: dict[str, float] = {}
    solve = cli.solve

    def timed_solve(scenario):
        marks.setdefault("solve_start", time.monotonic())
        return solve(scenario)

    cli.solve = timed_solve
    status = 1
    try:
        status = cli.main(run_argv)
    finally:
        record = {"status": status, "backend": _accel.BACKEND, **marks}
        if tracer is not None:
            record["spans"] = [
                [s.id, s.name, s.parent, s.thread, s.start, s.end, s.work, s.key]
                for s in tracer.spans
            ]
        sidecar.write_text(json.dumps(record))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
