"""The benchmark's workloads: one ``nonlocalflow run`` command line each.

Each workload loads one layer of the package.  BENCHMARK.json gives the
reason for each; README.md gives it too, with the metrics each one should
move.  The benchmark seed becomes the scenario's ``--seed``, which picks the stability perturbation pairs and the
flow-Lipschitz probe points.  Workloads that emit trajectories only run no
checks, so no seed reaches them and their inputs are the same for every
seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    checked: bool

    def argv(self, seed: int, out_dir: str) -> list[str]:
        seed_args = ["--seed", str(seed)] if self.checked else []
        return ["run", *self.args, *seed_args, "--out", out_dir]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sed1d-checked", ("sedimentation-1d", "--n", "200"), True),
        Workload("ped2d-certified", ("pedestrian-2d", "--n", "100"), True),
        Workload(
            "ped2d-picard",
            ("pedestrian-2d", "--mode", "picard", "--dt", "0.01", "--n", "64",
             "--emit", "trajectories"),
            False,
        ),
        Workload("ped2d-crowd", ("pedestrian-2d", "--n", "900", "--emit", "trajectories"), False),
    )
}
