"""The benchmark's named workloads and the seeded chamber-mix generator.

Each workload is a list of jobs.  A job is one `rootmult` command line,
run in a fresh interpreter, plus the correctness checks its table must
pass.  The package only ever sees a preset name or a written matrix file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import lcm
from pathlib import Path

# chamber-mix: generated matrices per batch and their height cap.
MIX_SIZE = 14
MIX_CAP = 12


@dataclass(frozen=True)
class Job:
    name: str
    source: tuple[str, str]  # ("--preset", NAME) or ("--matrix", FILE)
    grid: tuple[tuple[int, ...], ...]
    cap: int
    check: str | None = None  # workload-specific check, see checks.py

    @property
    def cli_args(self) -> list[str]:
        return [*self.source, "--height", str(self.cap), "--format", "csv"]


def random_gcm(rng: random.Random) -> list[list[int]]:
    """A random symmetrizable GCM of rank 3 or 4.

    Symmetrizer entries come from {1, 1, 2}; each pair i < j draws a bond
    k from {0, 1, 1, 2} and gets a_ij = -k lcm/d_i, a_ji = -k lcm/d_j, so
    diag(d) A is symmetric.  k = 0 makes decomposable matrices, and small
    bonds give finite and affine ones whose chamber is empty or a ray.
    """
    d = rng.choice((3, 4))
    sym = [rng.choice((1, 1, 2)) for _ in range(d)]
    a = [[2 if i == j else 0 for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            k = rng.choice((0, 1, 1, 2))
            m = lcm(sym[i], sym[j])
            a[i][j] = -k * m // sym[i]
            a[j][i] = -k * m // sym[j]
    return a


def write_mix(mix_seed: int, out_dir: Path) -> list[Path]:
    """Write the chamber-mix batch for mix_seed as JSON matrix files."""
    rng = random.Random(mix_seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for n in range(MIX_SIZE):
        path = out_dir / f"mix{mix_seed}-{n:02d}.json"
        path.write_text(json.dumps(random_gcm(rng)) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def _grid(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(r) for r in rows)


def jobs_for(workload: str, mix_seed: int, work_dir: Path, order_seed: int) -> list[Job]:
    """The jobs of one workload.

    order_seed fixes the order in which chamber-mix jobs run; it changes
    no job, so runs with different seeds measure the same work.
    """
    # Imported here so that the benchmark's own files load without the
    # package; run.py checks that the package is present first.
    from rootmult.presets import preset_matrix

    if workload == "deep-rank2":
        return [Job("hyp-2-3@100", ("--preset", "hyp-2-3"),
                    _grid(preset_matrix("hyp-2-3")), 100, "deep-rank2")]
    if workload == "wide-e10":
        return [Job("e10@80", ("--preset", "e10"),
                    _grid(preset_matrix("e10")), 80, "wide-e10")]
    if workload == "chamber-mix":
        jobs = [
            Job(path.stem + f"@{MIX_CAP}", ("--matrix", str(path)),
                _grid(json.loads(path.read_text(encoding="utf-8"))), MIX_CAP,
                "chamber-mix")
            for path in write_mix(mix_seed, work_dir / "matrices")
        ]
        jobs.append(Job("e11@30", ("--preset", "e11"),
                        _grid(preset_matrix("e11")), 30))
        random.Random(order_seed).shuffle(jobs)
        return jobs
    raise KeyError(f"unknown workload {workload!r}")


WORKLOADS = ("deep-rank2", "wide-e10", "chamber-mix")
